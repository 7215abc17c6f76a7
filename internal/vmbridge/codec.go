package vmbridge

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// Every TCPPublisher link — the VM bridge and the fleet link alike — speaks
// one wire format: one length-prefixed binary message per published frame.
// Strings are length-prefixed bytes, floats raw IEEE 754, and every frame
// carries its three provenance stamps, zero when unstamped. Nothing is
// negotiated: a publisher writes from its first byte, a receiver never
// writes, and a reader checks each message's magic.

// CodecBinary names the one wire encoding.
//
// Deprecated: every link speaks the one binary frame, so there is nothing to
// select. The name stays for callers that still set collector.Config.Codec,
// which the collector ignores.
const CodecBinary = 1

// BinaryVersionProvenance is the version of the one frame layout (magic
// PWB2), which every ConnStats.WireVersion reports.
const BinaryVersionProvenance = 2

// binaryMagic opens every message, so a reader pointed at anything else fails
// loudly instead of decoding garbage.
var binaryMagic = [4]byte{'P', 'W', 'B', '2'}

// BinaryMessageHeader is the size of the fixed message prefix (magic plus
// uint32 payload length). AppendBinaryBatch emits it; ReadBinaryMessage
// consumes it and returns the bare payload.
const BinaryMessageHeader = 8

// maxBinaryPayload bounds one binary message. It is sized for a full fleet
// round from one node (a million rows would still fit), so hitting it is a
// protocol violation, not a bigger buffer waiting to happen.
const maxBinaryPayload = 64 << 20

// errBadMagic reports a binary message that does not start with the magic.
var errBadMagic = errors.New("vmbridge: bad binary frame magic")

// errMalformed reports a binary payload that ends mid-frame.
var errMalformed = errors.New("vmbridge: malformed binary frame payload")

// minRowBytes is the smallest wire footprint of one row: a one-byte uvarint
// for an empty key plus the eight-byte float. A frame claiming more rows than
// the remaining payload could possibly hold is malformed, and rejecting it up
// front keeps a hostile header from driving a huge presize in consumers that
// trust FrameHeader.Rows (decodeBinaryFrames does).
const minRowBytes = 9

// AppendBinaryBatch appends one binary wire message encoding the whole batch
// to dst and returns the extended slice. Encoding allocates only when dst's
// capacity is exceeded, so a publisher reusing its scratch buffer encodes
// steady-state rounds allocation-free.
//
// Message layout: magic "PWB2", uint32 LE payload length, payload. Payload
// layout: uvarint frame count, then per frame: uvarint-prefixed VM name,
// uvarint Seq, uvarint Timestamp (ns), float64 LE Watts, float64 LE
// HostTotalWatts, uvarint-prefixed SourceMode, uvarint EmitMono, uvarint
// Round, uvarint TraceID, uvarint row count, then per row a uvarint-prefixed
// key and a float64 LE watts. An unstamped frame costs one zero byte per
// stamp.
//
//powerapi:hotpath
func AppendBinaryBatch(dst []byte, frames []VMPowerFrame) []byte {
	dst = append(dst, binaryMagic[:]...)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // payload length backfilled below
	dst = binary.AppendUvarint(dst, uint64(len(frames)))
	for i := range frames {
		f := &frames[i]
		dst = appendString(dst, f.VM)
		dst = binary.AppendUvarint(dst, f.Seq)
		dst = binary.AppendUvarint(dst, uint64(f.Timestamp))
		dst = appendFloat(dst, f.Watts)
		dst = appendFloat(dst, f.HostTotalWatts)
		dst = appendString(dst, f.SourceMode)
		dst = binary.AppendUvarint(dst, uint64(f.EmitMono))
		dst = binary.AppendUvarint(dst, f.Round)
		dst = binary.AppendUvarint(dst, f.TraceID)
		dst = binary.AppendUvarint(dst, uint64(len(f.Rows)))
		for _, row := range f.Rows {
			dst = appendString(dst, row.Key)
			dst = appendFloat(dst, row.Watts)
		}
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

//powerapi:hotpath
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

//powerapi:hotpath
func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// ReadBinaryMessage reads one binary message from r and returns its payload,
// reusing buf's backing array when it is large enough. The returned slice is
// only valid until the next call with the same buffer.
//
//powerapi:hotpath
func ReadBinaryMessage(r io.Reader, buf []byte) ([]byte, error) {
	var head [BinaryMessageHeader]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	if [4]byte(head[:4]) != binaryMagic {
		return nil, errBadMagic
	}
	n := binary.LittleEndian.Uint32(head[4:])
	if n > maxBinaryPayload {
		//powerapi:allow hotpath error path: only a malformed or hostile header reaches this
		return nil, fmt.Errorf("vmbridge: binary payload of %d bytes exceeds the %d limit", n, maxBinaryPayload)
	}
	if uint32(cap(buf)) < n {
		//powerapi:allow hotpath amortized growth: the caller reuses the returned buffer across reads
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// LinkLost reports whether a read error means the link went away — end of
// stream, a closed connection, or a message cut off mid-read — rather than a
// framing or decode error. Binary framing cannot resync mid-stream, so every
// read error ends a link; readers count the ones that are not link loss as
// decode errors.
func LinkLost(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// SplitBinaryMessage validates one complete in-memory wire message (header
// plus payload, as a feeder hands collector.FeedPayload) and returns its bare
// payload view without copying.
func SplitBinaryMessage(msg []byte) ([]byte, error) {
	if len(msg) < BinaryMessageHeader {
		return nil, errMalformed
	}
	if [4]byte(msg[:4]) != binaryMagic {
		return nil, errBadMagic
	}
	n := binary.LittleEndian.Uint32(msg[4:])
	if n > maxBinaryPayload || uint64(n) != uint64(len(msg)-BinaryMessageHeader) {
		return nil, errMalformed
	}
	return msg[BinaryMessageHeader:], nil
}

// FrameHeader is the fixed part of one binary frame as the streaming decoder
// yields it. VM and SourceMode alias the payload buffer — they are valid only
// for the duration of the callback and must be copied to be retained.
type FrameHeader struct {
	VM             []byte
	Seq            uint64
	Timestamp      time.Duration
	Watts          float64
	HostTotalWatts float64
	SourceMode     []byte
	Rows           int
	// EmitMono/Round/TraceID are the frame's provenance stamps; all zero
	// when the publisher did not stamp it.
	EmitMono time.Duration
	Round    uint64
	TraceID  uint64
}

// DecodeBinaryBatch walks one binary payload, calling frame once per frame
// and row once per row of that frame, in wire order. All byte slices handed
// to the callbacks alias the payload — the zero-copy contract that lets the
// collector fold a million rows per second into its slot maps without
// allocating per row. If frame returns false the frame's rows are skipped
// (decoded to advance, not reported). A nil row callback skips all rows.
//
//powerapi:hotpath
func DecodeBinaryBatch(payload []byte, frame func(h FrameHeader) bool, row func(key []byte, watts float64)) error {
	count, payload, ok := takeUvarint(payload)
	if !ok {
		return errMalformed
	}
	for i := uint64(0); i < count; i++ {
		var h FrameHeader
		var seq, ts, emit, rows uint64
		if h.VM, payload, ok = takeBytes(payload); !ok {
			return errMalformed
		}
		if seq, payload, ok = takeUvarint(payload); !ok {
			return errMalformed
		}
		if ts, payload, ok = takeUvarint(payload); !ok {
			return errMalformed
		}
		if h.Watts, payload, ok = takeFloat(payload); !ok {
			return errMalformed
		}
		if h.HostTotalWatts, payload, ok = takeFloat(payload); !ok {
			return errMalformed
		}
		if h.SourceMode, payload, ok = takeBytes(payload); !ok {
			return errMalformed
		}
		if emit, payload, ok = takeUvarint(payload); !ok {
			return errMalformed
		}
		if h.Round, payload, ok = takeUvarint(payload); !ok {
			return errMalformed
		}
		if h.TraceID, payload, ok = takeUvarint(payload); !ok {
			return errMalformed
		}
		if rows, payload, ok = takeUvarint(payload); !ok {
			return errMalformed
		}
		if rows > uint64(len(payload))/minRowBytes {
			return errMalformed
		}
		h.Seq, h.Timestamp, h.EmitMono, h.Rows = seq, time.Duration(ts), time.Duration(emit), int(rows)
		want := frame(h) && row != nil
		for j := uint64(0); j < rows; j++ {
			var key []byte
			var watts float64
			if key, payload, ok = takeBytes(payload); !ok {
				return errMalformed
			}
			if watts, payload, ok = takeFloat(payload); !ok {
				return errMalformed
			}
			if want {
				row(key, watts)
			}
		}
	}
	if len(payload) != 0 {
		return errMalformed
	}
	return nil
}

// decodeBinaryFrames decodes a payload into owned VMPowerFrame values — the
// guest receiver's channel path, where per-frame allocation is fine.
func decodeBinaryFrames(payload []byte, dst []VMPowerFrame) ([]VMPowerFrame, error) {
	err := DecodeBinaryBatch(payload,
		func(h FrameHeader) bool {
			f := VMPowerFrame{
				VM:             string(h.VM),
				Seq:            h.Seq,
				Timestamp:      h.Timestamp,
				Watts:          h.Watts,
				HostTotalWatts: h.HostTotalWatts,
				SourceMode:     string(h.SourceMode),
				EmitMono:       h.EmitMono,
				Round:          h.Round,
				TraceID:        h.TraceID,
			}
			if h.Rows > 0 {
				f.Rows = make([]TargetRow, 0, h.Rows)
			}
			dst = append(dst, f)
			return true
		},
		func(key []byte, watts float64) {
			f := &dst[len(dst)-1]
			f.Rows = append(f.Rows, TargetRow{Key: string(key), Watts: watts})
		})
	return dst, err
}

//powerapi:hotpath
func takeUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

//powerapi:hotpath
func takeBytes(b []byte) ([]byte, []byte, bool) {
	n, rest, ok := takeUvarint(b)
	if !ok || uint64(len(rest)) < n {
		return nil, b, false
	}
	return rest[:n], rest[n:], true
}

//powerapi:hotpath
func takeFloat(b []byte) (float64, []byte, bool) {
	if len(b) < 8 {
		return 0, b, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], true
}
