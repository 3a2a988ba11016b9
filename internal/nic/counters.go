package nic

import (
	"fmt"
	"sort"
	"strings"

	"sanft/internal/metrics"
)

// counter indexes the NIC's event counters.
type counter uint8

const (
	ctrSendBufferStall counter = iota
	ctrAcksPiggybacked
	ctrControlNoRoute
	ctrErrInjectedDrops
	ctrTxNoRoute
	ctrPktsSent
	ctrRetransmitBursts
	ctrPktsRetransmitted
	ctrCRCDrops
	ctrRouteUpdates
	ctrAcksReceived
	ctrRxDropped
	ctrRxDupDrops
	ctrRxOooDrops
	ctrPktsAccepted
	ctrAcksSent
	ctrProbesAnswered
	ctrPathResets
	ctrPktsDroppedUnreachable
	numCounters
)

// counterNames holds each counter's event name, in enum order. Its
// registry name is "nic." + the event name, labeled with the host.
var counterNames = [numCounters]string{
	ctrSendBufferStall:        "send-buffer-stall",
	ctrAcksPiggybacked:        "acks-piggybacked",
	ctrControlNoRoute:         "control-no-route",
	ctrErrInjectedDrops:       "err-injected-drops",
	ctrTxNoRoute:              "tx-no-route",
	ctrPktsSent:               "pkts-sent",
	ctrRetransmitBursts:       "retransmit-bursts",
	ctrPktsRetransmitted:      "pkts-retransmitted",
	ctrCRCDrops:               "crc-drops",
	ctrRouteUpdates:           "route-updates",
	ctrAcksReceived:           "acks-received",
	ctrRxDropped:              "rx-dropped",
	ctrRxDupDrops:             "rx-dup-drops",
	ctrRxOooDrops:             "rx-ooo-drops",
	ctrPktsAccepted:           "pkts-accepted",
	ctrAcksSent:               "acks-sent",
	ctrProbesAnswered:         "probes-answered",
	ctrPathResets:             "path-resets",
	ctrPktsDroppedUnreachable: "pkts-dropped-unreachable",
}

// inc adds k to event counter c (nic.<name>{host=h} in the registry). The
// handle is bound on first touch, so a counter the NIC never counts is
// never registered and never appears in a metrics dump.
func (n *NIC) inc(c counter, k uint64) {
	h := n.ctrs[c]
	if h == nil {
		h = n.mx.Counter("nic." + counterNames[c])
		n.ctrs[c] = h
	}
	h.Add(k)
}

// Counters is a read-only view of one NIC's event counters, keyed by event
// name ("pkts-sent", "acks-piggybacked", ...). It reads the registry
// handles the NIC counts into, so it always agrees with the metrics dump.
type Counters struct {
	ctrs *[numCounters]*metrics.Counter
}

// Get returns the count of event name (0 if never counted).
func (c Counters) Get(name string) uint64 {
	for i, n := range counterNames {
		if n == name && c.ctrs[i] != nil {
			return c.ctrs[i].Value()
		}
	}
	return 0
}

// Names returns the names of every event counted so far, sorted.
func (c Counters) Names() []string {
	var names []string
	for i, h := range c.ctrs {
		if h != nil {
			names = append(names, counterNames[i])
		}
	}
	sort.Strings(names)
	return names
}

// String renders the counters as space-separated name=value pairs in name
// order.
func (c Counters) String() string {
	var b strings.Builder
	for i, name := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, c.Get(name))
	}
	return b.String()
}
