// Package device models the paper's testbed tablet: a Samsung Galaxy Tab
// running Android 11 that hosts the browser apps, the transparent MITM
// proxy container, per-UID iptables diversion, eBPF traffic accounting, a
// local DNS stub resolver, a system certificate trust store, and
// per-package private storage that a factory reset (Appium's app reset)
// wipes.
//
// The device sits between the browser emulators and the virtual internet:
// every connection an app opens goes through DialContext, which resolves
// the destination, evaluates the netfilter OUTPUT path (diverting browser
// UIDs into the proxy with the original destination preserved), and fires
// the eBPF hooks.
package device

import (
	"context"
	"crypto/x509"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"

	"panoptes/internal/ebpfsim"
	"panoptes/internal/netfilter"
	"panoptes/internal/netsim"
	"panoptes/internal/vclock"
)

// Model/build constants matching Table 1's testbed.
const (
	ModelName    = "SM-T580"
	Manufacturer = "Samsung"
	AndroidRel   = "11"
	ScreenWidth  = 1200
	ScreenHeight = 1920
	ScreenDPI    = 224
)

// firstAppUID is where Android starts assigning application UIDs.
const firstAppUID = 10000

// Package is an installed application.
type Package struct {
	Name string // e.g. "com.opera.browser"
	UID  int
}

// Device is the simulated tablet.
type Device struct {
	Clock *vclock.Clock
	Net   *netsim.Internet
	// IP is the device's Wi-Fi address; it is also the "local IP" some
	// browsers leak (Table 2, Whale).
	IP net.IP

	Firewall   *netfilter.Stack
	Hooks      *ebpfsim.Registry
	Accounting *ebpfsim.TrafficAccounting

	// DisableH3Block leaves UDP/443 open: DivertBrowser skips the
	// block-http3 DROP rule (the -block-h3=false ablation), so browser
	// QUIC probes reach advertised HTTP/3 origins and those exchanges
	// bypass the TCP-only interception path entirely — the arms race the
	// paper's methodology forecloses by blocking UDP/443.
	DisableH3Block bool

	mu       sync.Mutex
	packages map[string]*Package
	nextUID  int
	storage  map[string]map[string]string // package -> key -> value
	roots    []*x509.Certificate
	stub     *StubResolver
	rooted   bool
	// dialFault, when set, is consulted at the top of DialContext with the
	// dialing UID, bare host and full addr; a non-nil return aborts the dial
	// with that error (internal/faultsim's armed DNS/connect faults).
	dialFault func(uid int, host, addr string) error
}

// SetDialFault installs (or clears, with nil) the dial fault-injection hook.
func (d *Device) SetDialFault(fn func(uid int, host, addr string) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dialFault = fn
}

func (d *Device) dialFaultFn() func(uid int, host, addr string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dialFault
}

// New creates a device wired to a virtual internet and clock.
func New(clock *vclock.Clock, inet *netsim.Internet) (*Device, error) {
	d := &Device{
		Clock:    clock,
		Net:      inet,
		IP:       net.IPv4(192, 168, 1, 100),
		Firewall: netfilter.NewStack(),
		Hooks:    ebpfsim.NewRegistry(),
		packages: make(map[string]*Package),
		nextUID:  firstAppUID,
		storage:  make(map[string]map[string]string),
	}
	ta, err := ebpfsim.NewTrafficAccounting(d.Hooks)
	if err != nil {
		return nil, fmt.Errorf("device: load traffic accounting: %w", err)
	}
	d.Accounting = ta
	d.stub = newStubResolver(d)
	return d, nil
}

// Install registers an app package and assigns it a kernel UID, as the
// Android installer does. Reinstalling returns the existing package.
func (d *Device) Install(name string) *Package {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.packages[name]; ok {
		return p
	}
	p := &Package{Name: name, UID: d.nextUID}
	d.nextUID++
	d.packages[name] = p
	d.storage[name] = make(map[string]string)
	return p
}

// PackageByName looks a package up.
func (d *Device) PackageByName(name string) (*Package, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.packages[name]
	return p, ok
}

// UIDOf returns the kernel UID a package runs under — the value Panoptes
// extracts to build the per-browser iptables rules (paper §2.2).
func (d *Device) UIDOf(name string) (int, error) {
	p, ok := d.PackageByName(name)
	if !ok {
		return 0, fmt.Errorf("device: package %q not installed", name)
	}
	return p.UID, nil
}

// Packages lists installed package names, sorted.
func (d *Device) Packages() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.packages))
	for n := range d.packages {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- App private storage (persistent identifiers live here) ---

// StoragePut writes a key in a package's private data directory.
func (d *Device) StoragePut(pkg, key, value string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.storage[pkg]
	if !ok {
		return fmt.Errorf("device: package %q not installed", pkg)
	}
	s[key] = value
	return nil
}

// StorageGet reads a key from a package's private data directory.
func (d *Device) StorageGet(pkg, key string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.storage[pkg]
	if !ok {
		return "", false
	}
	v, ok := s[key]
	return v, ok
}

// ClearAppData wipes a package's private storage — what Appium's
// "reset to factory settings" does before each crawl campaign (§2.1).
func (d *Device) ClearAppData(pkg string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.storage[pkg]; !ok {
		return fmt.Errorf("device: package %q not installed", pkg)
	}
	d.storage[pkg] = make(map[string]string)
	return nil
}

// --- Trust store ---

// InstallCA adds a root certificate to the system trust store, as the
// testbed installs the mitmproxy CA.
func (d *Device) InstallCA(cert *x509.Certificate) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.roots = append(d.roots, cert)
}

// TrustedRoots returns the system root pool apps use for TLS validation.
func (d *Device) TrustedRoots() *x509.CertPool {
	d.mu.Lock()
	defer d.mu.Unlock()
	pool := x509.NewCertPool()
	for _, c := range d.roots {
		pool.AddCert(c)
	}
	return pool
}

// SetRooted marks the device as rooted; some browsers report this status
// (Table 2, Whale).
func (d *Device) SetRooted(v bool) { d.mu.Lock(); d.rooted = v; d.mu.Unlock() }

// Rooted reports the rooted status.
func (d *Device) Rooted() bool { d.mu.Lock(); defer d.mu.Unlock(); return d.rooted }

// Resolver returns the device's local DNS stub resolver.
func (d *Device) Resolver() *StubResolver { return d.stub }

// --- Network stack ---

// ErrFirewallDrop is returned when a filter rule drops the connection.
type ErrFirewallDrop struct {
	Addr string
	Rule string
}

func (e *ErrFirewallDrop) Error() string {
	return fmt.Sprintf("device: connection to %s dropped by firewall (%s)", e.Addr, e.Rule)
}

// DialContext opens a TCP connection from the app with the given UID to
// addr ("host:port"). The netfilter OUTPUT path runs first: a REDIRECT
// verdict diverts the connection to the proxy with the original
// destination preserved in the connection metadata; a DROP verdict fails
// the dial. eBPF sock_create programs may also veto the socket. Byte
// hooks feed the per-UID accounting maps. A port outside 1-65535 fails the
// dial before any hook or rule sees it.
func (d *Device) DialContext(ctx context.Context, uid int, addr string) (net.Conn, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("device: dial %s: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 1 || port > 65535 {
		return nil, fmt.Errorf("device: dial %s: invalid port %q", addr, portStr)
	}

	if fn := d.dialFaultFn(); fn != nil {
		if ferr := fn(uid, host, addr); ferr != nil {
			return nil, ferr
		}
	}

	dstIP, err := d.Net.LookupHost(host)
	if err != nil {
		return nil, err
	}

	if act := d.Hooks.Fire(ebpfsim.AttachSockCreate, &ebpfsim.Context{
		UID: uid, Proto: "tcp", DstHost: host, DstPort: port,
	}); act == ebpfsim.ActionDrop {
		return nil, &ErrFirewallDrop{Addr: addr, Rule: "ebpf sock_create"}
	}

	res, err := d.Firewall.EvalOutput(netfilter.Packet{
		Proto: netfilter.ProtoTCP, SrcIP: d.IP, DstIP: dstIP, DstPort: port, OwnerUID: uid,
	})
	if err != nil {
		return nil, fmt.Errorf("device: firewall: %w", err)
	}

	meta := netsim.Meta{OwnerUID: uid, OriginalDst: addr}
	dialAddr := addr
	switch res.Verdict {
	case netfilter.VerdictDrop:
		rule := "policy"
		if res.Rule != nil {
			rule = res.Rule.Comment
			if rule == "" {
				rule = "rule"
			}
		}
		return nil, &ErrFirewallDrop{Addr: addr, Rule: rule}
	case netfilter.VerdictRedirect:
		meta.Redirected = true
		dialAddr = res.RedirectAddr
	}

	conn, err := d.Net.Dial(ctx, dialAddr,
		netsim.WithMeta(meta),
		netsim.WithSource(d.IP, 0))
	if err != nil {
		if meta.Redirected {
			return nil, fmt.Errorf("device: transparent redirect to %s failed: %w", dialAddr, err)
		}
		return nil, err
	}

	d.instrumentConn(conn, uid, port)
	return conn, nil
}

// instrumentConn wires the per-UID eBPF byte accounting to a new connection.
func (d *Device) instrumentConn(conn *netsim.Conn, uid, dstPort int) {
	conn.SetByteHooks(
		func(n int) {
			d.Hooks.Fire(ebpfsim.AttachEgress, &ebpfsim.Context{UID: uid, Proto: "tcp", DstPort: dstPort, Bytes: n})
		},
		func(n int) {
			d.Hooks.Fire(ebpfsim.AttachIngress, &ebpfsim.Context{UID: uid, Proto: "tcp", DstPort: dstPort, Bytes: n})
		},
	)
}

// SendUDP sends a datagram from the app with the given UID, subject to
// the firewall (the UDP/443 DROP rule lives here) and eBPF hooks. It
// reports whether the datagram was delivered.
func (d *Device) SendUDP(uid int, dstHost string, dstPort int, payload []byte) (bool, error) {
	dstIP, err := d.Net.LookupHost(dstHost)
	if err != nil {
		return false, err
	}
	if act := d.Hooks.Fire(ebpfsim.AttachSockCreate, &ebpfsim.Context{
		UID: uid, Proto: "udp", DstHost: dstHost, DstPort: dstPort,
	}); act == ebpfsim.ActionDrop {
		return false, &ErrFirewallDrop{Addr: fmt.Sprintf("%s:%d", dstHost, dstPort), Rule: "ebpf sock_create"}
	}
	res, err := d.Firewall.EvalOutput(netfilter.Packet{
		Proto: netfilter.ProtoUDP, SrcIP: d.IP, DstIP: dstIP, DstPort: dstPort, OwnerUID: uid,
	})
	if err != nil {
		return false, err
	}
	if res.Verdict == netfilter.VerdictDrop {
		return false, &ErrFirewallDrop{Addr: fmt.Sprintf("%s:%d", dstHost, dstPort), Rule: "udp drop"}
	}
	d.Hooks.Fire(ebpfsim.AttachEgress, &ebpfsim.Context{UID: uid, Proto: "udp", DstPort: dstPort, Bytes: len(payload)})
	delivered := d.Net.SendUDP(&net.UDPAddr{IP: d.IP, Port: 30000 + uid%20000}, &net.UDPAddr{IP: dstIP, Port: dstPort}, payload)
	return delivered, nil
}

// DivertBrowser installs the paper's per-browser diversion rules: all of
// the UID's TCP traffic REDIRECTed to proxyAddr, plus (once) the global
// UDP/443 DROP that forces HTTP/3 fallback.
func (d *Device) DivertBrowser(uid int, proxyAddr string) error {
	cmd := fmt.Sprintf("-t nat -A OUTPUT -p tcp -m owner --uid-owner %d -j REDIRECT --to %s --comment uid-%d",
		uid, proxyAddr, uid)
	if err := d.Firewall.Exec(cmd); err != nil {
		return err
	}
	if d.DisableH3Block {
		return nil
	}
	return d.EnsureH3Block()
}

// EnsureH3Block installs the UDP/443 DROP rule if not already present.
func (d *Device) EnsureH3Block() error {
	rules, err := d.Firewall.Rules("filter", "OUTPUT")
	if err != nil {
		return err
	}
	for _, r := range rules {
		if r.Comment == "block-http3" {
			return nil
		}
	}
	return d.Firewall.Exec("-t filter -A OUTPUT -p udp --dport 443 -j DROP --comment block-http3")
}

// UndivertAll flushes the diversion rules (between campaigns).
func (d *Device) UndivertAll() {
	d.Firewall.FlushAll()
}

// DiversionActive reports whether a REDIRECT rule exists for uid.
func (d *Device) DiversionActive(uid int) bool {
	rules, err := d.Firewall.Rules("nat", "OUTPUT")
	if err != nil {
		return false
	}
	needle := fmt.Sprintf("uid-%d", uid)
	for _, r := range rules {
		if strings.Contains(r.Comment, needle) {
			return true
		}
	}
	return false
}
