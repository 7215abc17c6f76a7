package vmbridge

import (
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
