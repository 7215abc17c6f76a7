package vmbridge

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func testBatch() []VMPowerFrame {
	return []VMPowerFrame{
		{
			VM: "node-a", Seq: 7, Timestamp: 3 * time.Second, Watts: 41.5,
			HostTotalWatts: 41.5, SourceMode: "simulated",
			Rows: []TargetRow{
				{Key: "cgroup:web", Watts: 20.25},
				{Key: "cgroup:web/api", Watts: 21.25},
			},
		},
		{VM: "vm-b", Seq: 8, Timestamp: 3 * time.Second, Watts: 11},
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	batch := testBatch()
	wire := AppendBinaryBatch(nil, batch)
	payload, err := ReadBinaryMessage(bytes.NewReader(wire), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBinaryFrames(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, batch)
	}
}

func TestBinaryCodecRejectsTorn(t *testing.T) {
	wire := AppendBinaryBatch(nil, testBatch())
	if _, err := ReadBinaryMessage(bytes.NewReader(wire[:len(wire)-3]), nil); err == nil {
		t.Fatal("truncated message should not read cleanly")
	}
	payload, err := ReadBinaryMessage(bytes.NewReader(wire), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeBinaryBatch(payload[:len(payload)-1], func(FrameHeader) bool { return true }, nil); err == nil {
		t.Fatal("truncated payload should fail to decode")
	}
	wire[0] = 'X'
	if _, err := ReadBinaryMessage(bytes.NewReader(wire), nil); err == nil {
		t.Fatal("bad magic should be rejected")
	}
}

func TestStreamingDecodeAliasesPayload(t *testing.T) {
	batch := testBatch()
	wire := AppendBinaryBatch(nil, batch)
	payload := wire[8:]
	var keys []string
	var watts []float64
	err := DecodeBinaryBatch(payload,
		func(h FrameHeader) bool { return len(h.VM) == len("node-a") },
		func(key []byte, w float64) {
			keys = append(keys, string(key))
			watts = append(watts, w)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "cgroup:web" || keys[1] != "cgroup:web/api" {
		t.Fatalf("row keys = %v", keys)
	}
	if watts[0] != 20.25 || watts[1] != 21.25 {
		t.Fatalf("row watts = %v", watts)
	}
}

func TestEncodeSteadyStateAllocFree(t *testing.T) {
	batch := testBatch()
	scratch := AppendBinaryBatch(nil, batch)
	avg := testing.AllocsPerRun(100, func() {
		scratch = AppendBinaryBatch(scratch[:0], batch)
	})
	if avg > 0 {
		t.Fatalf("encode into warm buffer allocates %.1f/op, want 0", avg)
	}
}
