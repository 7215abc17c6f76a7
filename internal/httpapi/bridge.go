package httpapi

import (
	"fmt"
	"strings"
	"sync"

	"powerapi/internal/vmbridge"
)

// This file exposes the VM-bridge transports of a daemon on its /metrics
// exposition: per-publisher sent and dropped-connection counters, and
// per-connection sent/dropped counters of every registered publisher (one row
// per downstream collector or guest, labelled by remote address), plus the
// decode-error counter of every registered receiver. Every
// link speaks the one binary frame; the codec="binary" label stays so that
// the families keep their label sets. Registration is explicit — the daemon wires in the
// transports it actually opened — so a daemon without bridges pays nothing.

// bridgeSet is the registered bridge transports of one server, scraped on
// every /metrics render.
type bridgeSet struct {
	mu        sync.Mutex
	pubs      []namedPublisher
	receivers []namedReceiver
}

type namedPublisher struct {
	name string
	pub  *vmbridge.TCPPublisher
}

type namedReceiver struct {
	name string
	recv *vmbridge.TCPReceiver
}

// RegisterBridgePublisher adds one TCP publisher's per-connection counters to
// the /metrics exposition under the given name ("vm-publish",
// "fleet-publish", ...).
func (s *Server) RegisterBridgePublisher(name string, p *vmbridge.TCPPublisher) {
	if p == nil {
		return
	}
	s.bridges.mu.Lock()
	s.bridges.pubs = append(s.bridges.pubs, namedPublisher{name: name, pub: p})
	s.bridges.mu.Unlock()
}

// RegisterBridgeReceiver adds one TCP receiver's decode-error counter to the
// /metrics exposition under the given name.
func (s *Server) RegisterBridgeReceiver(name string, r *vmbridge.TCPReceiver) {
	if r == nil {
		return
	}
	s.bridges.mu.Lock()
	s.bridges.receivers = append(s.bridges.receivers, namedReceiver{name: name, recv: r})
	s.bridges.mu.Unlock()
}

// writeBridgeMetrics appends the bridge transport families to a /metrics
// exposition.
func (bs *bridgeSet) writeBridgeMetrics(b *strings.Builder) {
	bs.mu.Lock()
	pubs := append([]namedPublisher(nil), bs.pubs...)
	receivers := append([]namedReceiver(nil), bs.receivers...)
	bs.mu.Unlock()
	if len(pubs) > 0 {
		b.WriteString("# HELP powerapi_bridge_connections Live downstream connections on one bridge publisher.\n")
		b.WriteString("# TYPE powerapi_bridge_connections gauge\n")
		for _, np := range pubs {
			fmt.Fprintf(b, "powerapi_bridge_connections{publisher=\"%s\"} %d\n", escapeLabel(np.name), np.pub.Connections())
		}
		b.WriteString("# HELP powerapi_bridge_published_frames_total Frames one bridge publisher wrote, summed over its connections.\n")
		b.WriteString("# TYPE powerapi_bridge_published_frames_total counter\n")
		for _, np := range pubs {
			fmt.Fprintf(b, "powerapi_bridge_published_frames_total{publisher=\"%s\"} %d\n", escapeLabel(np.name), np.pub.Sent())
		}
		b.WriteString("# HELP powerapi_bridge_dropped_connections_total Connections one bridge publisher dropped after a failed write.\n")
		b.WriteString("# TYPE powerapi_bridge_dropped_connections_total counter\n")
		for _, np := range pubs {
			fmt.Fprintf(b, "powerapi_bridge_dropped_connections_total{publisher=\"%s\"} %d\n", escapeLabel(np.name), np.pub.Dropped())
		}
		b.WriteString("# HELP powerapi_bridge_conn_sent_frames_total Frames written to one downstream connection.\n")
		b.WriteString("# TYPE powerapi_bridge_conn_sent_frames_total counter\n")
		for _, np := range pubs {
			for _, cs := range np.pub.ConnStats() {
				fmt.Fprintf(b, "powerapi_bridge_conn_sent_frames_total{publisher=\"%s\",remote=\"%s\",codec=\"binary\"} %d\n",
					escapeLabel(np.name), escapeLabel(cs.Remote), cs.SentFrames)
			}
		}
		b.WriteString("# HELP powerapi_bridge_conn_dropped_batches_total Frames evicted unsent from one slow downstream connection's queue.\n")
		b.WriteString("# TYPE powerapi_bridge_conn_dropped_batches_total counter\n")
		for _, np := range pubs {
			for _, cs := range np.pub.ConnStats() {
				fmt.Fprintf(b, "powerapi_bridge_conn_dropped_batches_total{publisher=\"%s\",remote=\"%s\",codec=\"binary\"} %d\n",
					escapeLabel(np.name), escapeLabel(cs.Remote), cs.DroppedBatches)
			}
		}
	}
	if len(receivers) > 0 {
		b.WriteString("# HELP powerapi_bridge_decode_errors_total Wire messages one bridge receiver failed to decode.\n")
		b.WriteString("# TYPE powerapi_bridge_decode_errors_total counter\n")
		for _, nr := range receivers {
			fmt.Fprintf(b, "powerapi_bridge_decode_errors_total{receiver=\"%s\",codec=\"binary\"} %d\n",
				escapeLabel(nr.name), nr.recv.DecodeErrors())
		}
	}
}
