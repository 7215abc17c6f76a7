package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies the call a span brackets. Names reuse the layer
// vocabulary of the per-layer metrics.
type spanName uint8

const (
	spanRound spanName = iota
	spanStep
	spanCollect
	spanEncode
	spanFeed
	spanCommitWait
	spanRollup
	spanSink
	spanQuery
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"round", "machine.step", "core.collect", "vmbridge.encode", "collector.feed",
	"collector.commit_wait", "collector.rollup", "collector.sink", "collector.query",
}

// span is one traced call: its interval on the tracer's monotonic clock, the
// span that contains it (-1 for none), the benchmark round and, on fleet
// spans, the frame trace id the program stamps for that node and round.
type span struct {
	start, end int64
	parent     int32
	name       spanName
	round      uint32
	traceID    uint64
}

// tracer records spans into a buffer allocated once, so recording never
// allocates or blocks; the buffer is written out when the run ends. It only
// records while on.
type tracer struct {
	on      bool
	epoch   time.Time
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id, or -1 while tracing is off or the
// buffer is full.
func (t *tracer) begin(name spanName, parent int32, round uint32, traceID uint64) int32 {
	if !t.on {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{start: t.now(), parent: parent, name: name, round: round, traceID: traceID})
	return int32(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = t.now()
	}
}

// selfNs returns, per span name, the summed self time of its spans: each
// span's duration minus the durations of the spans whose parent it is.
func (t *tracer) selfNs() [numSpanNames]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var self [numSpanNames]int64
	for i, s := range t.spans {
		self[s.name] += s.end - s.start - child[i]
	}
	return self
}

// writeJSONL writes every recorded span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"startNs":%d,"endNs":%d,"parent":%d,"round":%d,"traceId":%d}`+"\n",
			i, spanNames[s.name], s.start, s.end, s.parent, s.round, s.traceID)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
