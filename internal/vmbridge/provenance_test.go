package vmbridge

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// provenanceBatch is testBatch with emit-time provenance stamped: one shared
// round/emit/trace context per batch.
func provenanceBatch() []VMPowerFrame {
	batch := testBatch()
	for i := range batch {
		batch[i].EmitMono = 5 * time.Second
		batch[i].Round = 9
		batch[i].TraceID = FrameTraceID("vmbridge", 9)
	}
	return batch
}

// TestProvenanceRoundTrip pins the frame layout: stamps survive an
// encode/decode round trip, and unstamped frames stay valid, decoding with
// zero stamps.
func TestProvenanceRoundTrip(t *testing.T) {
	for name, batch := range map[string][]VMPowerFrame{"stamped": provenanceBatch(), "unstamped": testBatch()} {
		payload, err := SplitBinaryMessage(AppendBinaryBatch(nil, batch))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := decodeBinaryFrames(payload, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, batch) {
			t.Fatalf("%s round trip mismatch:\n got %+v\nwant %+v", name, got, batch)
		}
	}
}

// TestSplitBinaryMessageRejectsMalformed pins the in-memory validator used by
// collector.FeedPayload: truncation, a foreign magic (the retired PWB1
// layout included), and a length field that disagrees with the buffer are
// all errors, never a mis-sliced payload.
func TestSplitBinaryMessageRejectsMalformed(t *testing.T) {
	wire := AppendBinaryBatch(nil, provenanceBatch())
	if _, err := SplitBinaryMessage(wire[:BinaryMessageHeader-1]); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := SplitBinaryMessage(wire[:len(wire)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	for _, magic := range []byte{'1', '9'} {
		bad := append([]byte(nil), wire...)
		bad[3] = magic
		if _, err := SplitBinaryMessage(bad); !errors.Is(err, errBadMagic) {
			t.Fatalf("magic PWB%c: err = %v, want bad magic", magic, err)
		}
	}
}

// TestProvenanceOverTCP is the stamped path end to end: a dialed receiver's
// connection reports the one wire version, and its frames carry the stamps
// intact.
func TestProvenanceOverTCP(t *testing.T) {
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

	waitUntil(t, "connection", func() bool {
		stats := pub.ConnStats()
		return len(stats) == 1 && stats[0].WireVersion == BinaryVersionProvenance
	})

	batch := provenanceBatch()
	for _, f := range batch {
		if err := pub.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := range batch {
		select {
		case got := <-recv.Frames():
			if !reflect.DeepEqual(got, batch[i]) {
				t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got, batch[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	if recv.DecodeErrors() != 0 {
		t.Fatalf("receiver counted %d decode errors", recv.DecodeErrors())
	}
}

// TestFrameTraceIDStable pins the trace-id derivation: deterministic for a
// (publisher, round) pair, distinct across publishers and rounds, never zero
// for real inputs — a collector joins rounds across processes on these.
func TestFrameTraceIDStable(t *testing.T) {
	a := FrameTraceID("node-1", 7)
	if a != FrameTraceID("node-1", 7) {
		t.Fatal("trace id is not deterministic")
	}
	if a == FrameTraceID("node-2", 7) {
		t.Fatal("trace id ignores the publisher name")
	}
	if a == FrameTraceID("node-1", 8) {
		t.Fatal("trace id ignores the round")
	}
	if a == 0 {
		t.Fatal("trace id collapsed to zero")
	}
}
