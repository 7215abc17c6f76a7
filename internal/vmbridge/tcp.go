package vmbridge

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/fanout"
)

// TCPPublisher is the wire transport of the bridge, the virtio-serial
// stand-in: it listens on a TCP address and streams every published frame to
// every connected receiver as one binary message (AppendBinaryBatch).
// Connections are broadcast fan-out — a guest dialing in receives every VM's
// row and reads its own (DelegatedSource does). Each connection is a
// drop-oldest subscription of the publisher's fanout: a slow connection sheds
// frames there, the one place a bridge link sheds, and a dead one is dropped
// on write failure; neither backpressures the host pipeline.
type TCPPublisher struct {
	ln   net.Listener
	subs *fanout.Registry[VMPowerFrame]
	wg   sync.WaitGroup

	mu     sync.Mutex
	conns  map[uint64]*tcpConn
	nextID uint64
	closed bool

	sent    atomic.Uint64
	dropped atomic.Uint64
}

type tcpConn struct {
	conn   net.Conn
	remote string
	frames *fanout.Subscription[VMPowerFrame] // frames pending for this connection, drop-oldest
	sent   atomic.Uint64                      // frames written to the wire
}

// ConnStats is the observable state of one live publisher connection, the
// per-connection rows /metrics exposes.
type ConnStats struct {
	// Remote is the receiver's address.
	Remote string
	// WireVersion is the frame layout the connection speaks, always
	// BinaryVersionProvenance.
	WireVersion int
	// SentFrames counts frames written to this connection's wire.
	SentFrames uint64
	// DroppedBatches counts frames (one message each) shed drop-oldest
	// because the connection could not keep up.
	DroppedBatches uint64
}

// ListenTCP starts a frame publisher on addr ("127.0.0.1:9191"; port 0 picks
// a free one — see Addr).
func ListenTCP(addr string) (*TCPPublisher, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("vmbridge: listen on %s: %w", addr, err)
	}
	p := &TCPPublisher{ln: ln, subs: newFrameRegistry(), conns: make(map[uint64]*tcpConn)}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address the publisher listens on.
func (p *TCPPublisher) Addr() net.Addr { return p.ln.Addr() }

// Connections returns how many guests are currently connected.
func (p *TCPPublisher) Connections() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// ConnStats snapshots every live connection, sorted by remote address.
func (p *TCPPublisher) ConnStats() []ConnStats {
	p.mu.Lock()
	stats := make([]ConnStats, 0, len(p.conns))
	for _, c := range p.conns {
		stats = append(stats, ConnStats{
			Remote:         c.remote,
			WireVersion:    BinaryVersionProvenance,
			SentFrames:     c.sent.Load(),
			DroppedBatches: c.frames.Dropped(),
		})
	}
	p.mu.Unlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Remote < stats[j].Remote })
	return stats
}

// Sent returns how many frames were written so far, summed over connections.
func (p *TCPPublisher) Sent() uint64 { return p.sent.Load() }

// Dropped returns how many connections were dropped after a failed write (a
// receiver that went away). Frames shed by a slow connection's drop-oldest
// queue are not counted here, mirroring a serial port's silent overrun —
// ConnStats surfaces those per connection.
func (p *TCPPublisher) Dropped() uint64 { return p.dropped.Load() }

func (p *TCPPublisher) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &tcpConn{conn: conn, remote: conn.RemoteAddr().String()}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		// Close marks the publisher closed before it closes the registry, so
		// an open publisher's registry accepts the subscription.
		c.frames, _ = p.subs.Subscribe(frameQueue(c.remote), nil)
		p.nextID++
		id := p.nextID
		p.conns[id] = c
		p.mu.Unlock()
		p.wg.Add(1)
		go p.writeLoop(id, c)
	}
}

// writeLoop drains one connection's frame queue onto the wire — one message
// and one write per frame, so a node's whole round costs one syscall. A
// write failure (the receiver went away) drops the connection.
func (p *TCPPublisher) writeLoop(id uint64, c *tcpConn) {
	defer p.wg.Done()
	defer c.conn.Close()
	var scratch []byte // encoding buffer, reused across frames
	for frame := range c.frames.C() {
		scratch = AppendBinaryBatch(scratch[:0], []VMPowerFrame{frame})
		if _, err := c.conn.Write(scratch); err != nil {
			p.dropConn(id)
			return
		}
		p.sent.Add(1)
		c.sent.Add(1)
	}
}

func (p *TCPPublisher) dropConn(id uint64) {
	p.mu.Lock()
	c, ok := p.conns[id]
	delete(p.conns, id)
	p.mu.Unlock()
	if ok {
		p.dropped.Add(1)
		c.frames.Close()
		c.conn.Close()
	}
}

// Send implements Transport: the frame is queued for every live connection
// (drop-oldest per connection). With no receiver connected the frame is
// simply lost, like writing to an unattached serial port.
func (p *TCPPublisher) Send(frame VMPowerFrame) error {
	if p.subs.Publish(frame) != nil {
		return ErrClosed
	}
	return nil
}

// Close implements Transport: the listener and every connection shut down,
// so connected guests observe link loss. It is idempotent.
func (p *TCPPublisher) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	remaining := make([]*tcpConn, 0, len(p.conns))
	for _, c := range p.conns {
		remaining = append(remaining, c)
	}
	p.conns = make(map[uint64]*tcpConn)
	p.mu.Unlock()
	err := p.ln.Close()
	p.subs.CloseAll()
	for _, c := range remaining {
		c.conn.Close()
	}
	p.wg.Wait()
	return err
}

// TCPReceiver consumes the frame stream of a TCPPublisher. When the
// connection drops (or the publisher closes), the Frames channel closes — the
// guest-side DelegatedSource turns that into its staleness policy. The
// receiver sheds nothing: while its channel is full it stops reading, so a
// slow consumer backs the link up into the publisher's per-connection queue.
type TCPReceiver struct {
	conn   net.Conn
	frames chan VMPowerFrame
	done   chan struct{} // closed by Close; aborts a send waiting for room
	wg     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	decodeErrs atomic.Uint64
}

// DialTCP connects to a TCPPublisher at addr.
func DialTCP(addr string) (*TCPReceiver, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("vmbridge: dial %s: %w", addr, err)
	}
	r := &TCPReceiver{conn: conn, frames: make(chan VMPowerFrame, frameBuffer), done: make(chan struct{})}
	r.wg.Add(1)
	go r.readLoop()
	return r, nil
}

func (r *TCPReceiver) readLoop() {
	defer r.wg.Done()
	// The read loop is the only sender, so consumers see every decoded frame,
	// then the close.
	defer close(r.frames)
	br := bufio.NewReaderSize(r.conn, 64*1024)
	var buf []byte
	var frames []VMPowerFrame
	for {
		payload, err := ReadBinaryMessage(br, buf[:0])
		if err == nil {
			buf = payload
			frames, err = decodeBinaryFrames(payload, frames[:0])
		}
		if err != nil {
			if !LinkLost(err) {
				r.decodeErrs.Add(1)
			}
			return
		}
		for _, f := range frames {
			select {
			case r.frames <- f:
			case <-r.done:
				return
			}
		}
	}
}

// Frames implements Receiver.
func (r *TCPReceiver) Frames() <-chan VMPowerFrame { return r.frames }

// DecodeErrors returns how many wire messages failed to frame or decode; each
// one ended the link.
func (r *TCPReceiver) DecodeErrors() uint64 { return r.decodeErrs.Load() }

// Close implements Receiver: the connection closes and the Frames channel
// closes once the read loop drains. It is idempotent.
func (r *TCPReceiver) Close() error {
	r.closeOnce.Do(func() {
		close(r.done)
		r.closeErr = r.conn.Close()
		r.wg.Wait()
	})
	return r.closeErr
}

// maxBackoff caps the pause between link attempts however far the
// exponential climb has gotten.
const maxBackoff = 5 * time.Second

// Backoff returns the pause before the next try after the given failed
// attempt (1 for the first): base doubled once per earlier failure, capped at
// 5 s, then jittered ±25% so a fleet of peers restarting together does not
// reconnect in lockstep. DialTCPWithRetry and the collector's node links
// both pace their redials with it.
func Backoff(base time.Duration, attempt int) time.Duration {
	d := min(base, maxBackoff)
	for ; attempt > 1 && d < maxBackoff; attempt-- {
		d = min(2*d, maxBackoff)
	}
	if d <= 0 {
		return d
	}
	spread := d / 2
	return d - spread/2 + time.Duration(rand.Int63n(int64(spread)+1))
}

// DialTCPWithRetry dials a TCPPublisher, retrying up to attempts times with
// Backoff pauses — a guest daemon typically races the host daemon's
// listener, the way a VM boots before its management agent is up. Failed
// attempts and eventual success-after-retry are surfaced in slog with the
// attempt count.
func DialTCPWithRetry(addr string, attempts int, base time.Duration) (*TCPReceiver, error) {
	if attempts < 1 {
		return nil, errors.New("vmbridge: dial attempts must be at least 1")
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		r, err := DialTCP(addr)
		if err == nil {
			if attempt > 1 {
				slog.Info("vmbridge: dial succeeded after retries", "addr", addr, "attempt", attempt)
			}
			return r, nil
		}
		lastErr = err
		if attempt == attempts {
			break
		}
		pause := Backoff(base, attempt)
		slog.Warn("vmbridge: dial failed, backing off", "addr", addr, "attempt", attempt, "attempts", attempts, "backoff", pause, "err", err)
		time.Sleep(pause)
	}
	slog.Warn("vmbridge: dial gave up", "addr", addr, "attempts", attempts, "err", lastErr)
	return nil, fmt.Errorf("vmbridge: dial %s: gave up after %d attempts: %w", addr, attempts, lastErr)
}
