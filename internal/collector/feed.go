package collector

import (
	"fmt"

	"powerapi/internal/vmbridge"
)

// In-process feeding: with Config.Passive the collector dials nothing and the
// embedding process plays the daemons itself, handing encoded wire messages
// to FeedPayload. powerapi-bench and perfbench drive their fleet cells through
// these hooks, so the metered path — decode into the node's scratch, then the
// seq-strict commit — is exactly the one a socket reader runs, minus the
// socket.

// FeedPayload decodes one complete wire message (AppendBinaryBatch output,
// header included) into node i's contribution and commits it before it
// returns, exactly as the link reader would, and counts the whole message in
// the node's Bytes as the reader does. Concurrent feeders of one node take
// turns; the caller may reuse msg as soon as the call returns. A payload that
// fails to decode counts as a decode error, not as a returned error. Nodes
// are indexed in Config.Nodes order.
func (c *Collector) FeedPayload(node int, msg []byte) error {
	n, err := c.nodeAt(node)
	if err != nil {
		return err
	}
	payload, err := vmbridge.SplitBinaryMessage(msg)
	if err != nil {
		return fmt.Errorf("collector: feed node %d: %w", node, err)
	}
	n.bytes.Add(uint64(len(msg)))
	c.ingest(n, payload)
	return nil
}

// NodeLastSeq returns node i's last committed frame sequence — the cheap read
// a feeder uses to check which of its payloads landed (Stats snapshots every
// node and allocates; this does neither).
func (c *Collector) NodeLastSeq(node int) uint64 {
	n, err := c.nodeAt(node)
	if err != nil {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastSeq
}

func (c *Collector) nodeAt(i int) (*nodeConn, error) {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("collector: node index %d out of range 0..%d", i, len(c.nodes)-1)
	}
	return c.nodes[i], nil
}
