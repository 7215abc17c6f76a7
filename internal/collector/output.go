package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"powerapi/internal/core"
	"powerapi/internal/vmbridge"
)

// The push-output layer turns the collector from a poll-only surface into a
// publisher: each configured output tails the fleet — one JSON document per
// fleet round plus one per journal event — batches documents, and pushes the
// batches into a pluggable Sink with bounded queuing and capped-backoff
// retry. The layer makes the same load-shedding promise as every other stage
// here: a slow or dead sink never blocks a fleet round; it costs queued
// batches, oldest first, and a counter says how many were lost. Delivery is
// at-least-once per surviving batch — a sink that accepts a prefix of a batch
// slice (partial success) only sees the unacked suffix again, never a
// re-send of what it acknowledged.

// Sink is one push destination. WriteBatch receives a slice of encoded
// documents (each one JSON object, no trailing newline) and reports how many
// leading documents it durably accepted: on error the output retries the
// unacked suffix, so a sink must never claim documents it may have lost.
// Sinks are driven by a single goroutine; they need no internal locking.
type Sink interface {
	Name() string
	WriteBatch(docs [][]byte) (accepted int, err error)
	Close() error
}

// OutputConfig shapes one push output.
type OutputConfig struct {
	// BatchSize caps documents per WriteBatch call (default 64).
	BatchSize int
	// FlushEvery bounds how long a partial batch waits before pushing
	// (default 1s).
	FlushEvery time.Duration
	// QueueDocs bounds the pending-document queue; beyond it the oldest
	// documents are shed (default 4096).
	QueueDocs int
	// RetryBase is the first retry pause (default 200ms); consecutive
	// failures grow it as vmbridge.Backoff does, with jitter, up to 5s.
	RetryBase time.Duration
	// Events includes journal events in the stream (on by default through
	// the constructor; set by AddOutput callers).
	Events bool
	// Rounds includes fleet-round summaries in the stream.
	Rounds bool
}

func (c *OutputConfig) fill() {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = time.Second
	}
	if c.QueueDocs <= 0 {
		c.QueueDocs = 4096
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 200 * time.Millisecond
	}
}

// OutputStats is one push output's observable state.
type OutputStats struct {
	// Sink is the sink's self-reported name.
	Sink string `json:"sink"`
	// Batches and Docs count successfully acknowledged pushes.
	Batches uint64 `json:"batches"`
	Docs    uint64 `json:"docs"`
	// Retries counts WriteBatch errors; ShedDocs counts documents dropped by
	// the bounded queue while the sink was down or slow.
	Retries  uint64 `json:"retries"`
	ShedDocs uint64 `json:"shedDocs"`
	// Queued is the current pending-document depth.
	Queued int `json:"queued"`
	// LastError is the most recent sink error ("" if the last push worked).
	LastError string `json:"lastError,omitempty"`
}

// Output is one running push output: a subscription-fed encoder goroutine
// and a sink-driving delivery goroutine joined by a bounded queue.
type Output struct {
	sink Sink
	cfg  OutputConfig
	c    *Collector
	sub  *Subscription

	mu    sync.Mutex
	queue [][]byte
	wake  chan struct{}
	done  chan struct{}

	batches  atomic.Uint64
	docs     atomic.Uint64
	retries  atomic.Uint64
	shed     atomic.Uint64
	lastErr  atomic.Value // string
	wg       sync.WaitGroup
	closeOne sync.Once
}

// AddOutput attaches a sink to the collector's push-output layer and starts
// delivering. The output owns the sink: closing the output (or the collector)
// closes it.
func (c *Collector) AddOutput(sink Sink, cfg OutputConfig) (*Output, error) {
	if sink == nil {
		return nil, errors.New("collector: nil sink")
	}
	cfg.fill()
	if !cfg.Rounds && !cfg.Events {
		cfg.Rounds, cfg.Events = true, true
	}
	o := &Output{
		sink: sink,
		cfg:  cfg,
		c:    c,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	if cfg.Rounds {
		sub, err := c.Subscribe(SubscribeOptions{
			Name:   "output:" + sink.Name(),
			Policy: core.DropOldest,
			Buffer: 4,
		})
		if err != nil {
			return nil, err
		}
		o.sub = sub
	}
	c.outputsMu.Lock()
	c.outputs = append(c.outputs, o)
	c.outputsMu.Unlock()
	o.wg.Add(2)
	go o.feedLoop()
	go o.pushLoop()
	return o, nil
}

// roundDoc is the JSON document one fleet round becomes on a push output.
type roundDoc struct {
	Kind       string             `json:"kind"`
	Seq        uint64             `json:"seq"`
	Wall       time.Time          `json:"wall"`
	TotalWatts float64            `json:"totalWatts"`
	Nodes      int                `json:"nodes"`
	StaleNodes int                `json:"staleNodes"`
	PerNode    map[string]float64 `json:"perNode,omitempty"`
}

// eventDoc wraps one journal event for a push output.
type eventDoc struct {
	Kind  string    `json:"kind"`
	Event EventView `json:"event"`
}

// feedLoop encodes rounds and journal events into queue documents. Journal
// events are tailed by cursor on every round tick (and on a flush-interval
// ticker when rounds are off), so events reach sinks even between rounds.
func (o *Output) feedLoop() {
	defer o.wg.Done()
	var cursor uint64
	ticker := time.NewTicker(o.cfg.FlushEvery)
	defer ticker.Stop()
	var roundCh <-chan *FleetReport
	if o.sub != nil {
		roundCh = o.sub.C()
	}
	for {
		select {
		case <-o.done:
			return
		case rep, ok := <-roundCh:
			if !ok {
				return
			}
			doc, err := json.Marshal(roundDoc{
				Kind: "fleet_round", Seq: rep.Seq, Wall: rep.Wall,
				TotalWatts: rep.TotalWatts, Nodes: rep.Nodes, StaleNodes: rep.StaleNodes,
				PerNode: rep.PerNode,
			})
			rep.Release()
			if err == nil {
				o.enqueue(doc)
			}
			cursor = o.drainJournal(cursor)
		case <-ticker.C:
			cursor = o.drainJournal(cursor)
		}
	}
}

func (o *Output) drainJournal(cursor uint64) uint64 {
	if !o.cfg.Events {
		return cursor
	}
	for _, e := range o.c.journal.Since(cursor, 0) {
		cursor = e.Seq
		if doc, err := json.Marshal(eventDoc{Kind: "event", Event: e.View()}); err == nil {
			o.enqueue(doc)
		}
	}
	return cursor
}

// enqueue appends one document, shedding the oldest beyond the bound.
func (o *Output) enqueue(doc []byte) {
	o.mu.Lock()
	if len(o.queue) >= o.cfg.QueueDocs {
		drop := len(o.queue) - o.cfg.QueueDocs + 1
		o.queue = o.queue[:copy(o.queue, o.queue[drop:])]
		o.shed.Add(uint64(drop))
	}
	o.queue = append(o.queue, doc)
	o.mu.Unlock()
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// take moves up to BatchSize oldest documents out of the queue.
func (o *Output) take(into [][]byte) [][]byte {
	o.mu.Lock()
	n := min(len(o.queue), o.cfg.BatchSize)
	into = append(into[:0], o.queue[:n]...)
	o.queue = o.queue[:copy(o.queue, o.queue[n:])]
	o.mu.Unlock()
	return into
}

// requeue returns unacknowledged documents to the queue front, so retry order
// stays oldest-first. Documents beyond the bound shed from the *returned*
// batch (they are the oldest data present).
func (o *Output) requeue(batch [][]byte) {
	o.mu.Lock()
	room := o.cfg.QueueDocs - len(o.queue)
	if room < len(batch) {
		o.shed.Add(uint64(len(batch) - room))
		batch = batch[len(batch)-room:]
	}
	if len(batch) > 0 {
		o.queue = append(o.queue, batch...)
		copy(o.queue[len(batch):], o.queue[:len(o.queue)-len(batch)])
		copy(o.queue, batch)
	}
	o.mu.Unlock()
}

// pushLoop drives the sink: batch, write, retry the unacked suffix with
// vmbridge.Backoff pauses. One goroutine per output, so a dead sink costs
// its own queue only.
func (o *Output) pushLoop() {
	defer o.wg.Done()
	attempt := 0 // consecutive retries since the last fully acked batch
	var batch [][]byte
	for {
		batch = o.take(batch)
		if len(batch) == 0 {
			select {
			case <-o.done:
				// Drain: one final take so documents enqueued since the last
				// pass still push before the sink closes.
				if batch = o.take(batch); len(batch) == 0 {
					return
				}
			case <-o.wake:
				continue
			}
		}
		for len(batch) > 0 {
			accepted, err := o.sink.WriteBatch(batch)
			if accepted < 0 {
				accepted = 0
			}
			if accepted > len(batch) {
				accepted = len(batch)
			}
			if accepted > 0 {
				o.batches.Add(1)
				o.docs.Add(uint64(accepted))
				batch = batch[accepted:]
			}
			if err == nil && len(batch) == 0 {
				o.lastErr.Store("")
				attempt = 0
				break
			}
			// Partial success or error: retry the unacked suffix after a
			// pause, unless the output is closing — then requeue and exit so
			// Close never spins on a dead sink.
			o.retries.Add(1)
			if err != nil {
				o.lastErr.Store(err.Error())
			}
			attempt++
			select {
			case <-o.done:
				o.requeue(batch)
				return
			case <-time.After(vmbridge.Backoff(o.cfg.RetryBase, attempt)):
			}
		}
	}
}

// Stats snapshots the output.
func (o *Output) Stats() OutputStats {
	o.mu.Lock()
	queued := len(o.queue)
	o.mu.Unlock()
	st := OutputStats{
		Sink:     o.sink.Name(),
		Batches:  o.batches.Load(),
		Docs:     o.docs.Load(),
		Retries:  o.retries.Load(),
		ShedDocs: o.shed.Load(),
		Queued:   queued,
	}
	if v, _ := o.lastErr.Load().(string); v != "" {
		st.LastError = v
	}
	return st
}

// Close stops the output — pending documents get one final push attempt, no
// retry loop — and closes the sink. Idempotent.
func (o *Output) Close() error {
	var err error
	o.closeOne.Do(func() {
		if o.sub != nil {
			o.sub.Close()
		}
		close(o.done)
		o.wg.Wait()
		err = o.sink.Close()
		o.c.outputsMu.Lock()
		for i, cand := range o.c.outputs {
			if cand == o {
				o.c.outputs = append(o.c.outputs[:i], o.c.outputs[i+1:]...)
				break
			}
		}
		o.c.outputsMu.Unlock()
	})
	return err
}

// JSONLSink streams documents as JSON lines to a TCP endpoint or an
// append-only file. The TCP flavour redials lazily: a write failure closes
// the connection, reports zero accepted, and the next attempt reconnects —
// the output's retry loop supplies the pacing.
type JSONLSink struct {
	name string
	addr string // "tcp" scheme when set
	path string // file path when set

	conn net.Conn
	file *os.File
	buf  bytes.Buffer
}

// NewJSONLTCPSink pushes JSON lines over TCP to addr ("host:port").
func NewJSONLTCPSink(addr string) *JSONLSink {
	return &JSONLSink{name: "jsonl+tcp://" + addr, addr: addr}
}

// NewJSONLFileSink appends JSON lines to the file at path, creating it if
// missing. The file opens lazily on first write.
func NewJSONLFileSink(path string) *JSONLSink {
	return &JSONLSink{name: "jsonl+file://" + path, path: path}
}

func (s *JSONLSink) Name() string { return s.name }

func (s *JSONLSink) writer() (io.Writer, error) {
	if s.path != "" {
		if s.file == nil {
			f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			s.file = f
		}
		return s.file, nil
	}
	if s.conn == nil {
		conn, err := net.DialTimeout("tcp", s.addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		s.conn = conn
	}
	return s.conn, nil
}

// WriteBatch writes each document as one line. Lines are written one syscall
// per batch (buffered), but acceptance is all-or-nothing per batch: a broken
// pipe mid-buffer cannot tell which lines landed, so the sink claims none and
// the retry re-sends the whole batch — at-least-once, never silently lossy.
func (s *JSONLSink) WriteBatch(docs [][]byte) (int, error) {
	w, err := s.writer()
	if err != nil {
		return 0, err
	}
	s.buf.Reset()
	for _, d := range docs {
		s.buf.Write(d)
		s.buf.WriteByte('\n')
	}
	if _, err := w.Write(s.buf.Bytes()); err != nil {
		if s.conn != nil {
			s.conn.Close()
			s.conn = nil
		}
		return 0, err
	}
	return len(docs), nil
}

func (s *JSONLSink) Close() error {
	if s.conn != nil {
		return s.conn.Close()
	}
	if s.file != nil {
		return s.file.Close()
	}
	return nil
}

// WebhookSink POSTs each batch as one JSON array to a fixed URL. Any 2xx
// response acknowledges the whole batch; anything else (or a transport
// error) acknowledges nothing.
type WebhookSink struct {
	url    string
	client *http.Client
}

// NewWebhookSink pushes batches to url with a per-request timeout.
func NewWebhookSink(url string, timeout time.Duration) *WebhookSink {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &WebhookSink{url: url, client: &http.Client{Timeout: timeout}}
}

func (s *WebhookSink) Name() string { return "webhook " + s.url }

func (s *WebhookSink) WriteBatch(docs [][]byte) (int, error) {
	var body bytes.Buffer
	body.WriteByte('[')
	for i, d := range docs {
		if i > 0 {
			body.WriteByte(',')
		}
		body.Write(d)
	}
	body.WriteByte(']')
	resp, err := s.client.Post(s.url, "application/json", &body)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return 0, fmt.Errorf("webhook: status %s", resp.Status)
	}
	return len(docs), nil
}

func (s *WebhookSink) Close() error { return nil }
