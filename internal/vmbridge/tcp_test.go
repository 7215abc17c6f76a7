package vmbridge

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// TestTCPReceiverRejectsForeignMagic points a receiver at a raw listener that
// writes one message in the retired PWB1 layout: the receiver must count a
// decode error, deliver no frame and close its Frames channel.
func TestTCPReceiverRejectsForeignMagic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		msg := AppendBinaryBatch(nil, testBatch())
		msg[3] = '1'
		conn.Write(msg)
		// Hold the link open: the receiver must end it on its own.
		var b [1]byte
		conn.Read(b[:])
	}()

	recv, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	select {
	case f, ok := <-recv.Frames():
		if ok {
			t.Fatalf("frame delivered from a foreign magic: %+v", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver kept the link after a foreign magic")
	}
	if got := recv.DecodeErrors(); got != 1 {
		t.Fatalf("decode errors = %d, want 1", got)
	}
}

// TestBackoffJitterAndCap pins the one redial pause: every pause lies within
// ±25% of its nominal value, the nominal value doubles from the base per
// failed attempt, and it stops at the cap (reached well before attempt 64).
func TestBackoffJitterAndCap(t *testing.T) {
	const base = 100 * time.Millisecond
	nominal := base
	for attempt := 1; attempt <= 64; attempt++ {
		for i := 0; i < 200; i++ {
			d := Backoff(base, attempt)
			if lo, hi := nominal-nominal/4, nominal+nominal/4; d < lo || d > hi {
				t.Fatalf("attempt %d: pause %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
		nominal = min(2*nominal, maxBackoff)
	}
	if d := Backoff(time.Minute, 1); d > maxBackoff+maxBackoff/4 {
		t.Fatalf("a base above the cap paused %v", d)
	}
	if d := Backoff(0, 3); d != 0 {
		t.Fatalf("zero base paused %v", d)
	}
}

// TestGuestLinkShedsAtPublisher dials a receiver nobody reads. Once its
// channel is full the receiver must stop reading, so the publisher's writes
// stall and its per-connection queue sheds; draining the receiver then yields
// strictly increasing seqs, ending with the last frame sent.
func TestGuestLinkShedsAtPublisher(t *testing.T) {
	pub, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	recv, err := DialTCP(pub.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	waitUntil(t, "connection", func() bool { return pub.Connections() == 1 })

	// About 100 KB per frame, so a few hundred frames fill the socket buffers.
	rows := make([]TargetRow, 4096)
	for i := range rows {
		rows[i] = TargetRow{Key: fmt.Sprintf("cgroup:svc-%04d", i), Watts: 0.01}
	}
	var seq uint64
	send := func() {
		t.Helper()
		seq++
		if err := pub.Send(VMPowerFrame{VM: "host", Seq: seq, Watts: 40.96, Rows: rows}); err != nil {
			t.Fatal(err)
		}
	}
	conn := func() ConnStats { return pub.ConnStats()[0] }
	// Send each frame once the previous one is on the wire, until a write
	// has made no progress for a second: the socket buffers are full.
	const maxFrames = 1000
	for stalled := false; !stalled; {
		if seq > maxFrames {
			t.Fatalf("%d frames written without a stall: the receiver keeps reading while nobody consumes its frames", maxFrames)
		}
		send()
		deadline := time.Now().Add(time.Second)
		for conn().SentFrames < seq && !stalled {
			time.Sleep(time.Millisecond)
			stalled = time.Now().After(deadline)
		}
	}
	for range frameBuffer + 1 { // one more than the publisher's queue holds
		send()
	}
	if d := conn().DroppedBatches; d == 0 {
		t.Fatalf("publisher shed nothing after its queue overflowed: %+v", conn())
	}

	var last uint64
	for last < seq {
		select {
		case f, ok := <-recv.Frames():
			if !ok {
				t.Fatalf("link closed at seq %d, before the last frame %d arrived", last, seq)
			}
			if f.Seq <= last {
				t.Fatalf("seq %d arrived after seq %d", f.Seq, last)
			}
			last = f.Seq
		case <-time.After(5 * time.Second):
			t.Fatalf("the last frame %d never arrived (got up to %d)", seq, last)
		}
	}
}
