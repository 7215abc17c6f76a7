package actor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// panicky panics on the string "boom" and counts everything else.
type panicky struct {
	processed atomic.Int64
}

func (p *panicky) Receive(_ *Context, msg Message) {
	if msg == "boom" {
		panic("kaboom")
	}
	p.processed.Add(1)
}

func TestSpawnRecoversPanics(t *testing.T) {
	s := NewSystem("test")
	b := &panicky{}
	ref, err := s.Spawn("fragile", b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []Message{1, "boom", 2, "boom", 3} {
		if err := ref.Tell(msg); err != nil {
			t.Fatal(err)
		}
	}
	// Shutdown drains the mailbox; with an unsupervised seed runtime the
	// first panic would have killed the process (or deadlocked this call).
	s.Shutdown()
	if got := b.processed.Load(); got != 3 {
		t.Fatalf("processed %d messages across panics, want 3", got)
	}
	if got := ref.Restarts(); got != 2 {
		t.Fatalf("Restarts() = %d, want 2", got)
	}
}

func TestSupervisedRestartRebuildsBehavior(t *testing.T) {
	s := NewSystem("test")
	var built atomic.Int64
	var panics []PanicInfo
	var mu sync.Mutex
	policy := RestartPolicy{
		MaxRestarts: -1,
		OnPanic: func(info PanicInfo) {
			mu.Lock()
			panics = append(panics, info)
			mu.Unlock()
		},
	}
	ref, err := s.SpawnSupervised("fresh", func() Behavior {
		built.Add(1)
		return &panicky{}
	}, 0, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []Message{"boom", 1, "boom", 2} {
		if err := ref.Tell(msg); err != nil {
			t.Fatal(err)
		}
	}
	s.Shutdown()
	// Initial build plus one rebuild per panic.
	if got := built.Load(); got != 3 {
		t.Fatalf("factory invoked %d times, want 3", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(panics) != 2 {
		t.Fatalf("OnPanic called %d times, want 2", len(panics))
	}
	for i, info := range panics {
		if info.Actor != "fresh" || info.Value != "kaboom" || info.Restarts != i+1 {
			t.Fatalf("PanicInfo[%d] = %+v", i, info)
		}
		if len(info.Stack) == 0 {
			t.Fatalf("PanicInfo[%d] has no stack", i)
		}
	}
}

func TestRestartBudgetExhaustionKeepsDraining(t *testing.T) {
	s := NewSystem("test")
	b := &panicky{}
	ref, err := s.SpawnSupervised("doomed", func() Behavior { return b }, 4, RestartPolicy{MaxRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two panics exceed the budget of one restart; the actor must then drop
	// messages instead of blocking its senders.
	for _, msg := range []Message{"boom", "boom", 1, 2, 3} {
		if err := ref.Tell(msg); err != nil {
			t.Fatal(err)
		}
	}
	// Once the budget is exhausted, new Tells must fail fast with ErrStopped
	// instead of feeding a dead actor.
	var tellErr error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if tellErr = ref.Tell(99); errors.Is(tellErr, ErrStopped) {
			break
		}
	}
	if !errors.Is(tellErr, ErrStopped) {
		t.Fatalf("Tell to a budget-exhausted actor = %v, want ErrStopped", tellErr)
	}
	done := make(chan struct{})
	go func() {
		s.Shutdown() // must not deadlock on the dead child
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown deadlocked on an actor whose restart budget was exhausted")
	}
	if got := b.processed.Load(); got != 0 {
		t.Fatalf("dead actor processed %d messages, want 0", got)
	}
	if got := ref.Restarts(); got != 2 {
		t.Fatalf("Restarts() = %d, want 2", got)
	}
}

func TestSpawnSupervisedValidation(t *testing.T) {
	s := NewSystem("test")
	defer s.Shutdown()
	if _, err := s.SpawnSupervised("a", nil, 0, UnlimitedRestarts()); err == nil {
		t.Fatal("nil factory should fail")
	}
	if _, err := s.SpawnSupervised("a", func() Behavior { return nil }, 0, UnlimitedRestarts()); err == nil {
		t.Fatal("nil initial behavior should fail")
	}
}

// askReq is the request the Ask tests send; the replying behaviour answers
// on reply.
type askReq struct {
	reply chan<- Message
}

func TestAskReplies(t *testing.T) {
	s := NewSystem("test")
	defer s.Shutdown()
	ref, err := s.Spawn("doubler", BehaviorFunc(func(_ *Context, msg Message) {
		if req, ok := msg.(askReq); ok {
			req.reply <- 42
		}
	}), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Ask(ref, func(reply chan<- Message) Message { return askReq{reply: reply} }, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("Ask reply = %v, want 42", got)
	}
}

func TestAskTimeout(t *testing.T) {
	s := NewSystem("test")
	defer s.Shutdown()
	ref, err := s.Spawn("mute", BehaviorFunc(func(*Context, Message) {}), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Ask(ref, func(reply chan<- Message) Message { return askReq{reply: reply} }, 20*time.Millisecond)
	if !errors.Is(err, ErrAskTimeout) {
		t.Fatalf("Ask to a mute actor = %v, want ErrAskTimeout", err)
	}
}

func TestAskValidationAndStopped(t *testing.T) {
	if _, err := Ask(nil, func(chan<- Message) Message { return nil }, 0); err == nil {
		t.Fatal("nil target should fail")
	}
	s := NewSystem("test")
	ref, _ := s.Spawn("a", BehaviorFunc(func(*Context, Message) {}), 0)
	if _, err := Ask(ref, nil, 0); err == nil {
		t.Fatal("nil builder should fail")
	}
	s.Shutdown()
	_, err := Ask(ref, func(reply chan<- Message) Message { return askReq{reply: reply} }, time.Second)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Ask to stopped actor = %v, want ErrStopped", err)
	}
}

// TestEventBusConcurrentSubscribeUnsubscribe exercises the bus under -race:
// subscribers come and go while publishers fan out messages.
func TestEventBusConcurrentSubscribeUnsubscribe(t *testing.T) {
	s := NewSystem("test")
	defer s.Shutdown()
	const topics = 4
	const actorsPerTopic = 8
	refs := make([]*Ref, topics*actorsPerTopic)
	for i := range refs {
		ref, err := s.Spawn(fmt.Sprintf("sub-%d", i), BehaviorFunc(func(*Context, Message) {}), 64)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churners subscribe/unsubscribe their actor in a loop.
	for i, ref := range refs {
		wg.Add(1)
		go func(i int, ref *Ref) {
			defer wg.Done()
			topic := fmt.Sprintf("topic-%d", i%topics)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Bus().Subscribe(topic, ref)
				s.Bus().Unsubscribe(topic, ref)
			}
		}(i, ref)
	}
	// Publishers hammer every topic concurrently.
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Bus().Publish(fmt.Sprintf("topic-%d", i%topics), i)
				s.Bus().Subscribers(fmt.Sprintf("topic-%d", i%topics))
			}
		}(p)
	}
	// Let publishers finish, then stop the churners.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("bus churn test wedged")
	}
}
