package actor

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"
)

// virtualNodes is how many ring points each child contributes. Enough points
// smooth the key distribution across small pools without making ring
// construction noticeable.
const virtualNodes = 97

type ringPoint struct {
	hash  uint64
	child int
}

// Router dispatches messages over a fixed pool of child actors — the
// actor-level primitive behind the sharded PowerAPI pipeline, mirroring how
// Akka's consistent-hashing routers fan work out to a pool of routees. The
// children sit on a hash ring with virtual nodes, and every routing key maps
// to the nearest child clockwise. The same key always reaches the same child
// for a fixed pool, which is what lets stateful Sensor shards own a stable
// partition of the monitored PIDs.
type Router struct {
	children []*Ref
	ring     []ringPoint
}

// NewRouter builds a router over the given children.
func NewRouter(children ...*Ref) (*Router, error) {
	if len(children) == 0 {
		return nil, errors.New("actor: router needs at least one child")
	}
	for i, child := range children {
		if child == nil {
			return nil, fmt.Errorf("actor: router child %d is nil", i)
		}
	}
	r := &Router{
		children: append([]*Ref(nil), children...),
		ring:     make([]ringPoint, 0, len(children)*virtualNodes),
	}
	for i, child := range r.children {
		for v := 0; v < virtualNodes; v++ {
			r.ring = append(r.ring, ringPoint{hash: hashString(fmt.Sprintf("%s#%d", child.Name(), v)), child: i})
		}
	}
	sort.Slice(r.ring, func(a, b int) bool {
		if r.ring[a].hash != r.ring[b].hash {
			return r.ring[a].hash < r.ring[b].hash
		}
		return r.ring[a].child < r.ring[b].child
	})
	return r, nil
}

// Children returns the pool (a copy).
func (r *Router) Children() []*Ref {
	return append([]*Ref(nil), r.children...)
}

// Size returns the number of children in the pool.
func (r *Router) Size() int { return len(r.children) }

// IndexFor returns the pool index a routing key maps to.
func (r *Router) IndexFor(key uint64) int {
	h := hashUint64(key)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0 // wrap around the ring
	}
	return r.ring[i].child
}

// ShardFor returns the child a routing key maps to.
func (r *Router) ShardFor(key uint64) *Ref {
	return r.children[r.IndexFor(key)]
}

// Route delivers a keyed message to the child owning the key.
func (r *Router) Route(key uint64, msg Message) error {
	return r.ShardFor(key).Tell(msg)
}

// Broadcast delivers the message to every child and returns how many accepted
// it (stopped children are skipped, like EventBus.Publish).
func (r *Router) Broadcast(msg Message) int {
	delivered := 0
	for _, child := range r.children {
		if err := child.Tell(msg); err == nil {
			delivered++
		}
	}
	return delivered
}

// Ask performs a request/reply exchange with the child owning the key.
func (r *Router) Ask(key uint64, build func(reply chan<- Message) Message, timeout time.Duration) (Message, error) {
	return Ask(r.ShardFor(key), build, timeout)
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// hashUint64 is FNV-1a over the key's 8 little-endian bytes, inlined so the
// per-message routing path does not allocate a hasher.
func hashUint64(key uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= key & 0xff
		h *= prime64
		key >>= 8
	}
	return h
}
