// Package ebpfsim provides an eBPF-flavoured hook framework for the
// simulated Android device, modelled on the ebpf-go programming surface:
// programs are written against typed maps, pass a (much simplified)
// verifier, attach to named hook points, and run when the device network
// stack reaches those points.
//
// The device uses it the way Android itself uses eBPF: per-UID traffic
// accounting on socket egress/ingress, which gives the analysis layer an
// independent, kernel-side cross-check of the byte volumes the MITM proxy
// reports (Figure 4).
package ebpfsim

import (
	"fmt"
	"sync"
)

// AttachType names a hook point in the device network stack.
type AttachType string

// Hook points the device fires.
const (
	AttachSockCreate AttachType = "cgroup/sock_create" // new socket: may reject
	AttachEgress     AttachType = "cgroup/skb/egress"  // bytes leaving a socket
	AttachIngress    AttachType = "cgroup/skb/ingress" // bytes arriving
)

// Context is the event data passed to a program.
type Context struct {
	UID     int
	Proto   string // "tcp" or "udp"
	DstHost string
	DstPort int
	Bytes   int // payload size for egress/ingress events
}

// Action is a program's return value.
type Action int

// Actions.
const (
	ActionPass Action = iota
	ActionDrop
)

// Map is a string-keyed uint64 map, the moral equivalent of a
// BPF_MAP_TYPE_HASH of counters. All operations are safe for concurrent
// use.
type Map struct {
	name    string
	maxSize int
	mu      sync.RWMutex
	vals    map[string]uint64
}

// NewMap creates a map with a maximum entry count (the "map size" the
// verifier-equivalent enforces at runtime).
func NewMap(name string, maxSize int) *Map {
	if maxSize <= 0 {
		maxSize = 4096
	}
	return &Map{name: name, maxSize: maxSize, vals: make(map[string]uint64)}
}

// Name returns the map name.
func (m *Map) Name() string { return m.name }

// Add increments key by delta, creating it if absent. It returns an error
// when the map is full, as a real BPF update would.
func (m *Map) Add(key string, delta uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vals[key]; !ok && len(m.vals) >= m.maxSize {
		return fmt.Errorf("ebpfsim: map %q full (%d entries)", m.name, m.maxSize)
	}
	m.vals[key] += delta
	return nil
}

// Get returns the value for key (zero when absent).
func (m *Map) Get(key string) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.vals[key]
}

// Reset clears the map.
func (m *Map) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vals = make(map[string]uint64)
}

// Program is a hook program: a name, the hook it wants, a complexity
// declaration the loader verifies, and the function that runs per event.
type Program struct {
	Name string
	Type AttachType
	// MaxInstructions declares the program's cost; the loader rejects
	// programs above the verifier budget, standing in for the real
	// verifier's complexity analysis.
	MaxInstructions int
	Run             func(ctx *Context) Action
}

// VerifierBudget is the maximum declared complexity the loader accepts.
const VerifierBudget = 1 << 20

// Registry holds loaded programs by attach point.
type Registry struct {
	mu    sync.RWMutex
	progs map[AttachType][]*Program
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{progs: make(map[AttachType][]*Program)}
}

// Load verifies and attaches a program.
func (r *Registry) Load(p *Program) error {
	if p == nil || p.Run == nil {
		return fmt.Errorf("ebpfsim: nil program or body")
	}
	if p.Name == "" {
		return fmt.Errorf("ebpfsim: program needs a name")
	}
	switch p.Type {
	case AttachSockCreate, AttachEgress, AttachIngress:
	default:
		return fmt.Errorf("ebpfsim: unknown attach type %q", p.Type)
	}
	if p.MaxInstructions <= 0 || p.MaxInstructions > VerifierBudget {
		return fmt.Errorf("ebpfsim: program %q fails verification: declared complexity %d out of (0,%d]",
			p.Name, p.MaxInstructions, VerifierBudget)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.progs[p.Type] {
		if existing.Name == p.Name {
			return fmt.Errorf("ebpfsim: program %q already attached at %s", p.Name, p.Type)
		}
	}
	r.progs[p.Type] = append(r.progs[p.Type], p)
	return nil
}

// Fire runs every program attached at t. The aggregate action is Drop if
// any program drops, Pass otherwise.
func (r *Registry) Fire(t AttachType, ctx *Context) Action {
	r.mu.RLock()
	progs := r.progs[t]
	r.mu.RUnlock()
	out := ActionPass
	for _, p := range progs {
		if p.Run(ctx) == ActionDrop {
			out = ActionDrop
		}
	}
	return out
}

// TrafficAccounting is the standard per-UID accounting program set, the
// analogue of Android's netd eBPF counters.
type TrafficAccounting struct {
	// TxBytes, RxBytes, TxPackets count per UID (key: decimal UID).
	TxBytes   *Map
	RxBytes   *Map
	TxPackets *Map
}

// NewTrafficAccounting creates the maps and loads egress/ingress programs
// into the registry.
func NewTrafficAccounting(r *Registry) (*TrafficAccounting, error) {
	ta := &TrafficAccounting{
		TxBytes:   NewMap("uid_tx_bytes", 8192),
		RxBytes:   NewMap("uid_rx_bytes", 8192),
		TxPackets: NewMap("uid_tx_packets", 8192),
	}
	egress := &Program{
		Name: "traffic_account_egress", Type: AttachEgress, MaxInstructions: 512,
		Run: func(ctx *Context) Action {
			key := fmt.Sprint(ctx.UID)
			ta.TxBytes.Add(key, uint64(ctx.Bytes))
			ta.TxPackets.Add(key, 1)
			return ActionPass
		},
	}
	ingress := &Program{
		Name: "traffic_account_ingress", Type: AttachIngress, MaxInstructions: 512,
		Run: func(ctx *Context) Action {
			ta.RxBytes.Add(fmt.Sprint(ctx.UID), uint64(ctx.Bytes))
			return ActionPass
		},
	}
	if err := r.Load(egress); err != nil {
		return nil, err
	}
	if err := r.Load(ingress); err != nil {
		return nil, err
	}
	return ta, nil
}
