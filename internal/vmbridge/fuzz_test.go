package vmbridge

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// fuzzSeedFrames is a representative batch covering both bridge shapes: a
// host↔guest frame (no rows) and a fleet frame (node name + per-target rows).
func fuzzSeedFrames() []VMPowerFrame {
	return []VMPowerFrame{
		{VM: "vm-web", Seq: 7, Timestamp: 3 * time.Second, Watts: 12.5, HostTotalWatts: 80, SourceMode: "blended"},
		{VM: "node-3", Seq: 41, Timestamp: 9 * time.Second, Watts: 55.25, SourceMode: "rapl", Rows: []TargetRow{
			{Key: "cgroup:web/api", Watts: 30.5},
			{Key: "machine", Watts: 24.75},
		}},
	}
}

// FuzzDecodeBatch exercises the one wire decoder's payload walk from
// unstamped seeds: the zero-copy streaming decoder and the owning frame decoder
// must agree, never panic, and never let a hostile header drive allocation
// past the payload itself.
func FuzzDecodeBatch(f *testing.F) {
	msg := AppendBinaryBatch(nil, fuzzSeedFrames())
	f.Add(msg[BinaryMessageHeader:]) // well-formed unstamped payload
	f.Add(msg[BinaryMessageHeader : len(msg)-5])
	f.Add([]byte{})
	f.Add(hostileRowsPayload())
	f.Fuzz(checkDecodeBatch)
}

// FuzzDecodeBatchV2 checks the FuzzDecodeBatch property from
// provenance-stamped seeds, the layout once numbered wire version 2; its
// checked-in corpus keeps that name and includes an old version-1 payload,
// which the one decoder must reject or misparse loudly, never panic on.
func FuzzDecodeBatchV2(f *testing.F) {
	stamped := fuzzSeedFrames()
	for i := range stamped {
		stamped[i].EmitMono = time.Duration(1+i) * time.Second
		stamped[i].Round = uint64(40 + i)
		stamped[i].TraceID = FrameTraceID(stamped[i].VM, stamped[i].Round)
	}
	msg := AppendBinaryBatch(nil, stamped)
	f.Add(msg[BinaryMessageHeader:]) // well-formed stamped payload
	f.Add(msg[BinaryMessageHeader : len(msg)-5])
	// A stamped and an unstamped frame in one batch.
	mixed := AppendBinaryBatch(nil, []VMPowerFrame{stamped[0], fuzzSeedFrames()[1]})
	f.Add(mixed[BinaryMessageHeader:])
	f.Add([]byte{})
	f.Add(hostileRowsPayload())
	f.Fuzz(checkDecodeBatch)
}

// checkDecodeBatch is the property both fuzz targets check on one payload.
func checkDecodeBatch(t *testing.T, payload []byte) {
	var streamRows int
	streamErr := DecodeBinaryBatch(payload,
		func(h FrameHeader) bool { return true },
		func(key []byte, watts float64) { streamRows++ })
	frames, ownErr := decodeBinaryFrames(payload, nil)
	if (streamErr == nil) != (ownErr == nil) {
		t.Fatalf("decoders disagree: stream=%v own=%v", streamErr, ownErr)
	}
	if streamErr != nil {
		return
	}
	var ownRows int
	for i := range frames {
		ownRows += len(frames[i].Rows)
	}
	if ownRows != streamRows {
		t.Fatalf("row counts disagree: stream=%d own=%d", streamRows, ownRows)
	}
	// A payload that decoded must survive a re-encode/re-decode round trip
	// unchanged, stamps included. Equality is checked on the re-encoded
	// bytes, not the structs: floats round-trip as raw bits, and a NaN watts
	// value is legal on the wire but never compares equal to itself.
	enc := AppendBinaryBatch(nil, frames)[BinaryMessageHeader:]
	again, err := decodeBinaryFrames(enc, nil)
	if err != nil {
		t.Fatalf("re-encoded payload does not decode: %v", err)
	}
	enc2 := AppendBinaryBatch(nil, again)[BinaryMessageHeader:]
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip changed the encoding:\n  first:  %x\n  second: %x", enc, enc2)
	}
}

// hostileRowsPayload builds a tiny payload whose one frame claims 2^32 rows —
// the input that made decodeBinaryFrames presize gigabytes before the row
// count was bounded by the remaining payload.
func hostileRowsPayload() []byte { return claimRowsPayload(1 << 32) }

// claimRowsPayload builds one frame with empty strings and zero numbers and
// stamps, whose header claims the given row count but carries no row bytes.
func claimRowsPayload(rows uint64) []byte {
	p := binary.AppendUvarint(nil, 1)  // one frame
	p = append(p, 0)                   // empty VM name
	p = binary.AppendUvarint(p, 1)     // seq
	p = binary.AppendUvarint(p, 0)     // timestamp
	p = append(p, make([]byte, 16)...) // watts, hostTotalWatts
	p = append(p, 0)                   // empty source mode
	p = append(p, 0, 0, 0)             // emitMono, round, traceID: unstamped
	return binary.AppendUvarint(p, rows)
}

// TestDecodeBinaryFramesRowsBound pins the fix for the unbounded presize: a
// frame header claiming more rows than the remaining bytes could hold is
// malformed, and rejecting it costs no allocation proportional to the claim.
func TestDecodeBinaryFramesRowsBound(t *testing.T) {
	payload := hostileRowsPayload()
	if _, err := decodeBinaryFrames(payload, nil); err == nil {
		t.Fatal("payload claiming 2^32 rows in a few bytes decoded without error")
	}
	err := DecodeBinaryBatch(payload, func(FrameHeader) bool { return true }, nil)
	if err == nil {
		t.Fatal("streaming decoder accepted a row count the payload cannot hold")
	}
	// Everything before the claim is well-formed: the same header claiming
	// no rows decodes, so the rejection above is the row-count bound.
	if _, err := decodeBinaryFrames(claimRowsPayload(0), nil); err != nil {
		t.Fatalf("the hostile header claiming zero rows fails to decode: %v", err)
	}
	// The boundary itself still decodes: exactly as many rows as fit.
	frames := []VMPowerFrame{{VM: "n", Rows: []TargetRow{{Key: "", Watts: 1}, {Key: "", Watts: 2}}}}
	payload = AppendBinaryBatch(nil, frames)[BinaryMessageHeader:]
	got, err := decodeBinaryFrames(payload, nil)
	if err != nil || len(got) != 1 || len(got[0].Rows) != 2 {
		t.Fatalf("minimal-size rows failed to decode: frames=%v err=%v", got, err)
	}
}

// TestReadBinaryMessageHostileLength pins the header length bound: a header
// claiming a payload past the limit errors without allocating it, and the
// error is a framing error, not link loss.
func TestReadBinaryMessageHostileLength(t *testing.T) {
	var head [BinaryMessageHeader]byte
	copy(head[:], binaryMagic[:])
	binary.LittleEndian.PutUint32(head[4:], maxBinaryPayload+1)
	_, err := ReadBinaryMessage(bytes.NewReader(head[:]), nil)
	if err == nil || errors.Is(err, errBadMagic) || LinkLost(err) {
		t.Fatalf("over-limit payload length: err = %v, want the length-limit error", err)
	}
}
