// Package fanout is the report distribution both tiers share: the daemon's
// aggregated rounds and the collector's fleet rounds are published the same
// way. A pooled report buffer carries a refcounted Lease that recycles it once
// its last holder releases it, and a Registry fans every published report out
// to per-subscriber channels under an explicit backpressure policy.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Lease is the recycling state of one pooled report buffer; the buffer holds
// it as a field. refs counts the holders that promised to release the round,
// and gen increments when the buffer is recycled, which expires every
// outstanding copy. A copy of a report carries the lease and the generation it
// was taken at, so Expired detects a use after release. A nil *Lease stands
// for an unpooled report (a clone or a filtered copy): every method is a no-op
// on it.
type Lease struct {
	refs atomic.Int32
	gen  atomic.Uint64
	pool *Pool
	home any // the buffer holding this lease, handed back to pool
}

// Open starts a round on a buffer just taken from its pool, with one
// reference (the producer's). It returns the generation every copy of the
// round carries.
func (l *Lease) Open() uint64 {
	l.refs.Store(1)
	return l.gen.Load()
}

// Retain registers one more holder of the round.
func (l *Lease) Retain() {
	if l != nil {
		l.refs.Add(1)
	}
}

// Release drops the reference of a copy taken at generation gen. The last
// release expires every copy and returns the buffer to its pool. Releasing a
// copy whose round was already recycled is a no-op, so a double release
// cannot corrupt the buffer's next round.
func (l *Lease) Release(gen uint64) {
	if l == nil || l.gen.Load() != gen {
		return
	}
	if l.refs.Add(-1) == 0 {
		l.gen.Add(1) // expire every outstanding copy before the buffer is reused
		l.pool.puts.Add(1)
		l.pool.pool.Put(l.home)
	}
}

// Expired reports whether the copy taken at generation gen outlived its
// round: the buffer was recycled and may now carry another round's data.
func (l *Lease) Expired(gen uint64) bool {
	return l != nil && l.gen.Load() != gen
}

// Pool recycles leased report buffers and meters the traffic: gets and
// misses give the hit rate, and gets minus puts the leases not yet released.
type Pool struct {
	pool               sync.Pool
	gets, misses, puts atomic.Uint64
}

// NewPool returns a pool whose fresh buffers come from alloc, which returns
// the buffer and the Lease it holds.
func NewPool(alloc func() (buf any, lease *Lease)) *Pool {
	p := &Pool{}
	p.pool.New = func() any {
		p.misses.Add(1)
		buf, l := alloc()
		l.pool, l.home = p, buf
		return buf
	}
	return p
}

// Get takes a buffer for one round. The caller asserts its type and opens
// its lease.
func (p *Pool) Get() any {
	p.gets.Add(1)
	return p.pool.Get()
}

// Counters snapshots the pool's traffic: buffers taken, fresh allocations,
// and buffers returned by a last Release.
func (p *Pool) Counters() (gets, misses, puts uint64) {
	return p.gets.Load(), p.misses.Load(), p.puts.Load()
}
