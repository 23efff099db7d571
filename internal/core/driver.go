package core

import (
	"fmt"

	"github.com/javelen/jtp/internal/ijtp"
	"github.com/javelen/jtp/internal/metrics"
	"github.com/javelen/jtp/internal/node"
	"github.com/javelen/jtp/internal/packet"
	"github.com/javelen/jtp/internal/transport"
)

// The paper's protocol registers twice: "jtp" with the full mechanism
// set, "jnc" with in-network caching disabled (§4.1 ablation). Both are
// the same driver differing by one option.
func init() {
	transport.MustRegister("jtp", func() transport.Driver { return &driver{name: "jtp", caching: true} })
	transport.MustRegister("jnc", func() transport.Driver { return &driver{name: "jnc", caching: false} })
}

// driver adapts JTP (and its JNC ablation) to the transport layer: it
// installs the per-node iJTP plugins at attach time and dials core
// connections for flows.
type driver struct {
	name    string
	caching bool
	nw      *node.Network
	net     transport.NetConfig
	plugins []*ijtp.Plugin
}

func (d *driver) Name() string { return d.name }

// Attach installs one iJTP plugin per node, configured from the
// scenario-level knobs; plugin installation order is node-id order, so
// runs stay deterministic.
func (d *driver) Attach(nw *node.Network, nc transport.NetConfig) error {
	if d.nw != nil {
		return fmt.Errorf("core: driver %q already attached", d.name)
	}
	d.nw, d.net = nw, nc
	iCfg := ijtp.Defaults()
	if nc.MaxAttempts > 0 {
		iCfg.MaxAttempts = nc.MaxAttempts
	}
	if !d.caching {
		iCfg.CacheEnabled = false
	}
	if nc.CacheCapacity > 0 {
		iCfg.CacheCapacity = nc.CacheCapacity
	} else if nc.CacheCapacity < 0 {
		iCfg.CacheEnabled = false
	}
	iCfg.CachePolicy = nc.CachePolicy
	if nc.Tune != nil {
		nc.Tune(&iCfg)
	}
	eng := nw.Engine()
	clock := func() float64 { return eng.Now().Seconds() }
	for _, nd := range nw.Nodes() {
		id := nd.ID
		pl := ijtp.New(id, iCfg, nd.Router, func(p *packet.Packet) bool {
			return nw.SendFromFront(id, p)
		})
		pl.Clock = clock
		pl.Cache().SetPool(nw.PacketPool())
		nd.MAC.AddPlugin(pl)
		d.plugins = append(d.plugins, pl)
	}
	return nil
}

// Plugins exposes the installed iJTP plugins for probes (Hooks.Plugin).
func (d *driver) Plugins() []*ijtp.Plugin { return d.plugins }

// ExclusiveKey marks the iJTP plugin set: "jtp" and "jnc" both install
// it, and it acts on every JTP packet, so only one of them may attach
// to a network (transport.Exclusive).
func (d *driver) ExclusiveKey() string { return "ijtp" }

// NetStats aggregates the plugins' in-network counters.
func (d *driver) NetStats() transport.NetStats {
	var ns transport.NetStats
	for _, pl := range d.plugins {
		c := pl.Counters()
		ns.EnergyBudgetDrops += c.EnergyDrops
		ns.CacheHits += c.CacheServed
		ns.CacheInserts += pl.Cache().Stats().Inserts
	}
	return ns
}

func (d *driver) OpenFlow(spec transport.FlowSpec) (transport.Flow, error) {
	if d.nw == nil {
		return nil, fmt.Errorf("core: driver %q not attached", d.name)
	}
	cfg := Defaults(spec.Flow, spec.Src, spec.Dst)
	cfg.TotalPackets = spec.TotalPackets
	cfg.LossTolerance = spec.LossTolerance
	cfg.DisableBackoff = spec.DisableBackoff
	cfg.DisableRetransmissions = spec.DisableRetransmissions
	cfg.ConstantFeedbackRate = spec.ConstantFeedbackRate
	cfg.DeadlineAfter = spec.DeadlineAfter
	if d.net.TLowerBound > 0 {
		cfg.TLowerBound = d.net.TLowerBound
	}
	if spec.Tune != nil {
		spec.Tune(&cfg)
	}
	if spec.InitialRate > 0 {
		cfg.InitialRate = spec.InitialRate
	}
	if spec.MaxRate > 0 {
		cfg.MaxRate = spec.MaxRate
	}
	return &flow{proto: d.name, spec: spec, conn: Dial(d.nw, cfg), nw: d.nw}, nil
}

// flow adapts a core.Connection to the transport.Flow interface.
type flow struct {
	proto string
	spec  transport.FlowSpec
	conn  *Connection
	nw    *node.Network
}

func (f *flow) Start()     { f.conn.Start() }
func (f *flow) Stop()      { f.conn.Stop() }
func (f *flow) Done() bool { return f.conn.Done() }

// Conn exposes the underlying connection for JTP-specific probes.
func (f *flow) Conn() *Connection { return f.conn }

func (f *flow) Delivered() uint64 { return f.conn.Receiver.Stats().UniqueReceived }
func (f *flow) SourceRtx() uint64 { return f.conn.Sender.Stats().SourceRetransmissions }

func (f *flow) Goodput() float64 {
	return transport.GoodputNow(f.Stats(), f.nw.Engine().Now().Seconds())
}

func (f *flow) Stats() *metrics.FlowRecord {
	ss := f.conn.Sender.Stats()
	rs := f.conn.Receiver.Stats()
	fr := &metrics.FlowRecord{
		Proto:                 f.proto,
		Flow:                  uint16(f.spec.Flow),
		Src:                   uint16(f.spec.Src),
		Dst:                   uint16(f.spec.Dst),
		StartAt:               f.spec.StartAt,
		DataSent:              ss.DataSent,
		SourceRetransmissions: ss.SourceRetransmissions,
		CacheRecovered:        rs.CacheRecoveredSeen,
		AcksSent:              rs.AcksSent,
		UniqueDelivered:       rs.UniqueReceived,
		DeliveredBytes:        rs.DeliveredBytes,
		Duplicates:            rs.Duplicates,
		Completed:             rs.Completed,
		Reception:             f.conn.Receiver.Reception(),
	}
	if rs.Completed {
		fr.CompletedAt = rs.CompletedAt.Seconds()
	}
	return fr
}
