package fabric

import "sanft/internal/metrics"

// counters is the event accounting Fabric and Pipe share: registry handles
// bound on first touch (so an event that never happens never registers a
// metric), read back by Stats.
type counters struct {
	reg       *metrics.Registry
	injected  *metrics.Counter
	delivered *metrics.Counter
	bytes     *metrics.Counter
	watchdog  *metrics.Counter
	dropped   [len(dropNames)]*metrics.Counter
}

// bind points the counters at reg, dropping handles into any previous
// registry.
func (c *counters) bind(reg *metrics.Registry) { *c = counters{reg: reg} }

// add adds n to the unlabeled counter name, binding *h on first use.
func (c *counters) add(h **metrics.Counter, name string, n uint64) {
	if *h == nil {
		*h = c.reg.Counter(name, nil)
	}
	(*h).Add(n)
}

func (c *counters) inject() { c.add(&c.injected, "fabric.pkts_injected", 1) }

func (c *counters) watchdogReset() { c.add(&c.watchdog, "fabric.watchdog_resets", 1) }

func (c *counters) deliver(size int) {
	c.add(&c.delivered, "fabric.pkts_delivered", 1)
	c.add(&c.bytes, "fabric.bytes_delivered", uint64(size))
}

func (c *counters) drop(reason DropReason) {
	h := &c.dropped[reason]
	if *h == nil {
		*h = c.reg.Counter("fabric.pkts_dropped", metrics.L("reason", reason.String()))
	}
	(*h).Inc()
}

// stats snapshots the counters; the Dropped map is the caller's own.
func (c *counters) stats() Stats {
	s := Stats{
		Injected:       value(c.injected),
		Delivered:      value(c.delivered),
		WatchdogResets: value(c.watchdog),
		BytesDelivered: value(c.bytes),
		Dropped:        make(map[DropReason]uint64),
	}
	for r, h := range c.dropped {
		if h != nil {
			s.Dropped[DropReason(r)] = h.Value()
		}
	}
	return s
}

func value(h *metrics.Counter) uint64 {
	if h == nil {
		return 0
	}
	return h.Value()
}
