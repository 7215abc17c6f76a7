package fanout

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// buf is a pooled test buffer; report is a copy of its round.
type buf struct {
	lease Lease
	value int
}

type report struct {
	lease *Lease
	gen   uint64
	value int
}

func (r report) retain()  { r.lease.Retain() }
func (r report) release() { r.lease.Release(r.gen) }

func newTestPool() *Pool {
	return NewPool(func() (any, *Lease) {
		b := &buf{}
		return b, &b.lease
	})
}

func open(p *Pool, value int) report {
	b := p.Get().(*buf)
	b.value = value
	return report{lease: &b.lease, gen: b.lease.Open(), value: value}
}

func TestLeaseUseAfterRelease(t *testing.T) {
	p := newTestPool()
	producer := open(p, 7)
	holder := producer // a subscriber's copy of the published round
	holder.retain()
	if holder.lease.Expired(holder.gen) {
		t.Fatal("live round reported Expired")
	}
	producer.release()
	if holder.lease.Expired(holder.gen) {
		t.Fatal("round expired while a holder still retains it")
	}
	holder.release() // last reference: the buffer is recycled
	if !holder.lease.Expired(holder.gen) {
		t.Fatal("released round not detected as expired")
	}
	// Releasing an expired copy again must not recycle the buffer twice.
	holder.release()
	if gets, _, puts := p.Counters(); gets != 1 || puts != 1 {
		t.Fatalf("pool gets %d puts %d after one round, want 1/1", gets, puts)
	}
	// Reopened for a later round, the buffer carries a new generation; the
	// stale copy stays expired and its release is a no-op.
	next := holder.lease.Open()
	if next == holder.gen || holder.lease.Expired(next) || !holder.lease.Expired(holder.gen) {
		t.Fatalf("reopened buffer: gen %d (stale %d)", next, holder.gen)
	}
	holder.release()
	if holder.lease.Expired(next) {
		t.Fatal("a stale copy's release expired the buffer's next round")
	}
	holder.lease.Release(next)
	// A nil lease is an unpooled copy: every method is a no-op.
	var unpooled *Lease
	unpooled.Retain()
	unpooled.Release(0)
	if unpooled.Expired(0) {
		t.Fatal("unpooled copy reported Expired")
	}
}

// ledger counts the references the registry takes and gives back.
type ledger struct {
	mu   sync.Mutex
	refs map[int]int
}

func newLedger() (*ledger, *Registry[int]) {
	l := &ledger{refs: make(map[int]int)}
	return l, NewRegistry(func(v int) { l.add(v, 1) }, func(v int) { l.add(v, -1) }, nil)
}

func (l *ledger) add(v, d int) {
	l.mu.Lock()
	l.refs[v] += d
	l.mu.Unlock()
}

func (l *ledger) held(v int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.refs[v]
}

func TestSubscribeBufferRule(t *testing.T) {
	_, reg := newLedger()
	for _, tc := range []struct {
		opts Options
		want int
	}{
		{Options{Policy: Conflate, Buffer: 8}, 1},
		{Options{Policy: DropOldest}, DefaultBuffer},
		{Options{Policy: Block}, DefaultBuffer},
		{Options{Policy: Block, Buffer: 3}, 3},
	} {
		sub, err := reg.Subscribe(tc.opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := cap(sub.C()); got != tc.want {
			t.Fatalf("%+v: buffer %d, want %d", tc.opts, got, tc.want)
		}
	}
	for _, bad := range []Options{{Policy: Policy(42)}, {Buffer: -1}} {
		if _, err := reg.Subscribe(bad, nil); err == nil {
			t.Fatalf("Subscribe(%+v) should fail", bad)
		}
	}
	if info := reg.Info(); len(info) != 4 || info[0].ID != 1 || info[3].ID != 4 || info[3].Policy != Block {
		t.Fatalf("Info = %+v, want ids 1..4 in order", info)
	}
	reg.CloseAll()
	if reg.Len() != 0 {
		t.Fatalf("%d subscriptions live after CloseAll", reg.Len())
	}
	if _, err := reg.Subscribe(Options{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after CloseAll: %v, want ErrClosed", err)
	}
}

func TestEvictionReleasesReferences(t *testing.T) {
	for _, policy := range []Policy{Conflate, DropOldest} {
		l, reg := newLedger()
		sub, err := reg.Subscribe(Options{Policy: policy, Buffer: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v <= 5; v++ {
			reg.Publish(v)
		}
		keep := cap(sub.C())
		if sub.Delivered() != 5 || sub.Dropped() != uint64(5-keep) {
			t.Fatalf("%v: delivered %d dropped %d, want 5/%d", policy, sub.Delivered(), sub.Dropped(), 5-keep)
		}
		sub.Close()
		var got []int
		for v := range sub.C() {
			got = append(got, v)
		}
		if len(got) != keep || got[keep-1] != 5 {
			t.Fatalf("%v: closed subscription yielded %v, want the newest %d", policy, got, keep)
		}
		// Evicted rounds were handed back; the buffered ones are the
		// consumer's to release.
		for v := 1; v <= 5; v++ {
			want := 0
			if v > 5-keep {
				want = 1
			}
			if l.held(v) != want {
				t.Fatalf("%v: report %d holds %d references, want %d", policy, v, l.held(v), want)
			}
		}
	}
}

func TestCloseAbortsBlockedPublish(t *testing.T) {
	l, reg := newLedger()
	sub, err := reg.Subscribe(Options{Policy: Block, Buffer: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg.Publish(1) // fills the buffer
	published := make(chan struct{})
	go func() {
		reg.Publish(2) // waits for room
		close(published)
	}()
	// Give it time to block on the full channel; the test passes whichever
	// comes first, but only this order exercises the aborted send.
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		sub.Close()
		close(closed)
	}()
	for _, ch := range []chan struct{}{closed, published} {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not abort the blocked publish")
		}
	}
	if v, ok := <-sub.C(); !ok || v != 1 {
		t.Fatalf("buffered report after Close = %d, %v; want 1", v, ok)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel still open after its buffer drained")
	}
	if l.held(2) != 0 || sub.Delivered() != 1 {
		t.Fatalf("aborted report holds %d references, delivered %d; want 0 and 1", l.held(2), sub.Delivered())
	}
	// A closed subscription is out of the snapshot: publishing goes on.
	reg.Publish(3)
	if l.held(3) != 0 {
		t.Fatal("a closed subscription took a reference")
	}
}

func TestProjectionSkipsAndMaps(t *testing.T) {
	l, reg := newLedger()
	evenTimesTen := func(v int) (int, bool) { return v * 10, v%2 == 0 }
	sub, err := reg.Subscribe(Options{Policy: Block, Buffer: 4}, evenTimesTen)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 4; v++ {
		reg.Publish(v)
	}
	sub.Close()
	var got []int
	for v := range sub.C() {
		got = append(got, v)
		l.add(v, -1)
	}
	if len(got) != 2 || got[0] != 20 || got[1] != 40 || sub.Delivered() != 2 {
		t.Fatalf("projected delivery %v (delivered %d), want [20 40]", got, sub.Delivered())
	}
	for v := 1; v <= 40; v++ {
		if l.held(v) != 0 {
			t.Fatalf("report %d left with %d references", v, l.held(v))
		}
	}
}

// TestConcurrentPublishers publishes from several goroutines at once: the
// Block subscriber receives every report exactly once, the DropOldest one
// counts every report it evicted, and every reference comes back.
func TestConcurrentPublishers(t *testing.T) {
	const publishers, perPublisher = 4, 200
	const total = publishers * perPublisher
	l, reg := newLedger()
	block, err := reg.Subscribe(Options{Policy: Block, Buffer: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := reg.Subscribe(Options{Policy: DropOldest, Buffer: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for v := range block.C() {
			seen[v]++
			l.add(v, -1)
		}
	}()
	var wg sync.WaitGroup
	for p := range publishers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perPublisher {
				reg.Publish(p*perPublisher + i + 1)
			}
		}()
	}
	wg.Wait()
	block.Close()
	<-drained
	lossy.Close()
	for v := range lossy.C() {
		l.add(v, -1)
	}
	if len(seen) != total {
		t.Fatalf("Block subscriber saw %d distinct reports, want %d", len(seen), total)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("report %d delivered %d times to the Block subscriber", v, n)
		}
	}
	if lossy.Delivered() != total || lossy.Dropped() != total-2 {
		t.Fatalf("DropOldest delivered %d dropped %d, want %d/%d", lossy.Delivered(), lossy.Dropped(), total, total-2)
	}
	for v := 1; v <= total; v++ {
		if l.held(v) != 0 {
			t.Fatalf("report %d left with %d references", v, l.held(v))
		}
	}
}

// TestPublishAfterCloseAll checks that a closed registry refuses a report
// outright: Publish returns ErrClosed and takes no reference.
func TestPublishAfterCloseAll(t *testing.T) {
	l, reg := newLedger()
	if err := reg.Publish(1); err != nil {
		t.Fatalf("Publish on an open registry: %v", err)
	}
	reg.CloseAll()
	if err := reg.Publish(2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Publish after CloseAll: %v, want ErrClosed", err)
	}
	if l.held(2) != 0 {
		t.Fatalf("report published after CloseAll holds %d references, want 0", l.held(2))
	}
}
