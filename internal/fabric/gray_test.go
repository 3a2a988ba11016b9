package fabric

import (
	"testing"

	"sanft/internal/metrics"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// wire is the part of Fabric and Pipe the gray-loss accounting tests
// drive.
type wire interface {
	AttachHost(h topology.NodeID, fn func(*Packet))
	Inject(src topology.NodeID, pkt *Packet)
	SetLinkLoss(link int, rate float64, seed int64)
	Stats() Stats
	Metrics() *metrics.Registry
}

// checkGrayAccounting makes the source host's link lossy, pushes packets
// across it, and checks the drop accounting: gray drops happen, Stats and
// the registry agree on them, every packet is either delivered or
// dropped, and Stats hands out an independent copy of its Dropped map.
func checkGrayAccounting(t *testing.T, k *sim.Kernel, nw *topology.Network, hosts []topology.NodeID, w wire) {
	t.Helper()
	delivered := 0
	for _, h := range hosts {
		w.AttachHost(h, func(*Packet) { delivered++ })
	}
	src, dst := hosts[0], hosts[1]
	w.SetLinkLoss(nw.Node(src).Ports[0].ID, 0.3, 7)
	const n = 200
	for i := 0; i < n; i++ {
		w.Inject(src, mkPacket(nw, src, dst, 64))
	}
	k.Run()

	st := w.Stats()
	gray := st.Dropped[DropGray]
	if gray == 0 || gray == n {
		t.Fatalf("gray drops = %d of %d, want some but not all", gray, n)
	}
	if reg := w.Metrics().Counter("fabric.pkts_dropped", metrics.L("reason", "gray")).Value(); reg != gray {
		t.Fatalf("Stats gray drops %d, registry fabric.pkts_dropped{reason=gray} %d", gray, reg)
	}
	if st.Injected != n || st.Delivered != uint64(delivered) || st.Delivered+st.TotalDropped() != n {
		t.Fatalf("injected %d delivered %d (callback saw %d) dropped %d, want %d = delivered + dropped",
			st.Injected, st.Delivered, delivered, st.TotalDropped(), n)
	}
	st.Dropped[DropGray] = 0
	if again := w.Stats().Dropped[DropGray]; again != gray {
		t.Fatalf("mutating a Stats snapshot changed the fabric: %d, want %d", again, gray)
	}
}

func TestSetLinkLossFabric(t *testing.T) {
	k := sim.New(1)
	nw, hosts := topology.Star(2)
	checkGrayAccounting(t, k, nw, hosts, New(k, nw, DefaultConfig()))
}

func TestSetLinkLossPipe(t *testing.T) {
	k := sim.New(1)
	nw, hosts := topology.Star(2)
	checkGrayAccounting(t, k, nw, hosts, NewPipe(k, nw, DefaultConfig()))
}
