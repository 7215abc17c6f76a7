package actor

import (
	"fmt"
	"sync"
	"testing"
)

// spawnPool spawns n collectors and returns their refs alongside the
// collectors, so tests can see which child received which message.
func spawnPool(t *testing.T, s *System, n int) ([]*Ref, []*collector) {
	t.Helper()
	refs := make([]*Ref, n)
	cols := make([]*collector, n)
	for i := 0; i < n; i++ {
		cols[i] = &collector{}
		ref, err := s.Spawn(fmt.Sprintf("child-%d", i), cols[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	return refs, cols
}

func TestRouterValidation(t *testing.T) {
	s := NewSystem("test")
	defer s.Shutdown()
	if _, err := NewRouter(); err == nil {
		t.Fatal("empty pool should fail")
	}
	if _, err := NewRouter(nil); err == nil {
		t.Fatal("nil child should fail")
	}
	refs, _ := spawnPool(t, s, 2)
	r, err := NewRouter(refs...)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 2 || len(r.Children()) != 2 {
		t.Fatalf("Size = %d, Children = %d", r.Size(), len(r.Children()))
	}
}

func TestConsistentHashRoutingIsStable(t *testing.T) {
	s := NewSystem("test")
	defer s.Shutdown()
	refs, _ := spawnPool(t, s, 8)
	r, err := NewRouter(refs...)
	if err != nil {
		t.Fatal(err)
	}
	// The same key must always map to the same shard — the property that
	// lets a PID's counter state live on exactly one Sensor shard.
	first := make(map[uint64]*Ref)
	for key := uint64(0); key < 2000; key++ {
		first[key] = r.ShardFor(key)
	}
	for round := 0; round < 3; round++ {
		for key := uint64(0); key < 2000; key++ {
			if got := r.ShardFor(key); got != first[key] {
				t.Fatalf("key %d moved from %s to %s between calls", key, first[key].Name(), got.Name())
			}
		}
	}
	// A second router over the same pool must agree (the mapping is a pure
	// function of names and key, not construction order randomness).
	r2, err := NewRouter(refs...)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 2000; key++ {
		if r2.ShardFor(key) != first[key] {
			t.Fatalf("key %d routed differently by an identical router", key)
		}
	}
}

func TestConsistentHashSpreadsKeys(t *testing.T) {
	s := NewSystem("test")
	defer s.Shutdown()
	refs, _ := spawnPool(t, s, 8)
	r, err := NewRouter(refs...)
	if err != nil {
		t.Fatal(err)
	}
	perShard := make(map[*Ref]int)
	const keys = 8000
	for key := uint64(0); key < keys; key++ {
		perShard[r.ShardFor(key)]++
	}
	if len(perShard) != len(refs) {
		t.Fatalf("only %d of %d shards received keys", len(perShard), len(refs))
	}
	// Virtual nodes should keep the imbalance moderate: no shard may own
	// more than 3x its fair share.
	fair := keys / len(refs)
	for ref, n := range perShard {
		if n > 3*fair {
			t.Fatalf("shard %s owns %d of %d keys (fair share %d)", ref.Name(), n, keys, fair)
		}
	}
}

func TestRouterRouteDelivers(t *testing.T) {
	s := NewSystem("test")
	refs, cols := spawnPool(t, s, 4)
	r, err := NewRouter(refs...)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 100
	for key := uint64(0); key < keys; key++ {
		if err := r.Route(key, key); err != nil {
			t.Fatal(err)
		}
	}
	s.Shutdown()
	total := 0
	for i, col := range cols {
		msgs := col.messages()
		total += len(msgs)
		// Every message must have been routed to the shard that owns it.
		for _, m := range msgs {
			if r.ShardFor(m.(uint64)) != refs[i] {
				t.Fatalf("key %v delivered to %s, not its owner", m, refs[i].Name())
			}
		}
	}
	if total != keys {
		t.Fatalf("delivered %d messages, want %d", total, keys)
	}
}

func TestRouterBroadcast(t *testing.T) {
	s := NewSystem("test")
	refs, cols := spawnPool(t, s, 3)
	r, err := NewRouter(refs...)
	if err != nil {
		t.Fatal(err)
	}
	if delivered := r.Broadcast("tick"); delivered != 3 {
		t.Fatalf("Broadcast delivered to %d children, want 3", delivered)
	}
	s.Shutdown()
	for i, col := range cols {
		if len(col.messages()) != 1 {
			t.Fatalf("child %d missed the broadcast", i)
		}
	}
	// After shutdown nothing is deliverable.
	if delivered := r.Broadcast("tick"); delivered != 0 {
		t.Fatalf("Broadcast after shutdown delivered to %d children", delivered)
	}
}

func TestRouterAskRoutesToOwner(t *testing.T) {
	s := NewSystem("test")
	defer s.Shutdown()
	refs := make([]*Ref, 4)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("echo-%d", i)
		ref, err := s.Spawn(name, BehaviorFunc(func(_ *Context, msg Message) {
			if req, ok := msg.(askReq); ok {
				req.reply <- name
			}
		}), 0)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	r, err := NewRouter(refs...)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	owners := make(map[uint64]string)
	for key := uint64(0); key < 50; key++ {
		reply, err := r.Ask(key, func(reply chan<- Message) Message {
			return askReq{reply: reply}
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		owners[key] = reply.(string)
		mu.Unlock()
		if want := r.ShardFor(key).Name(); reply.(string) != want {
			t.Fatalf("key %d answered by %v, want %s", key, reply, want)
		}
	}
}

type askReq struct {
	reply chan<- Message
}
