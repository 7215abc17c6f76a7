package collector

import (
	"fmt"

	"powerapi/internal/vmbridge"
)

// In-process feeding: with Config.Passive the collector dials nothing and the
// embedding process plays the daemons itself, pushing encoded wire payloads
// straight into the ingest queues. powerapi-bench drives its fleet-scale
// cells through these hooks, so the metered path — pooled buffer, drop-oldest
// ring, worker decode, seq-strict commit — is exactly the one a socket reader
// feeds, minus the socket.

// FeedPayload hands one complete wire message (AppendBinaryBatch output,
// header included) to node i's ingest queue exactly as the link reader would,
// and counts the whole message in the node's Bytes as the reader does. The
// payload is copied into a pooled buffer, so the caller may reuse msg
// immediately. Nodes are indexed in Config.Nodes order.
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
	pb := getBuf()
	*pb = append(*pb, payload...)
	c.enqueue(n, pb)
	return nil
}

// NodeLastSeq returns node i's last committed frame sequence — the cheap poll
// a feeder uses to wait for its payloads to land (Stats snapshots every node
// and allocates; this does neither).
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
