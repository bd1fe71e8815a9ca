package device

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"panoptes/internal/dnsmsg"
	"panoptes/internal/ebpfsim"
	"panoptes/internal/netsim"
	"panoptes/internal/pki"
	"panoptes/internal/vclock"
)

func newTestDevice(t *testing.T) (*Device, *netsim.Internet) {
	t.Helper()
	inet := netsim.New()
	d, err := New(vclock.New(), inet)
	if err != nil {
		t.Fatal(err)
	}
	return d, inet
}

func startEcho(t *testing.T, inet *netsim.Internet, domain, country string, port int) {
	t.Helper()
	l, _, err := inet.ListenDomain(domain, country, port)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
}

func TestInstallAssignsSequentialUIDs(t *testing.T) {
	d, _ := newTestDevice(t)
	a := d.Install("com.android.chrome")
	b := d.Install("com.opera.browser")
	if a.UID != 10000 || b.UID != 10001 {
		t.Fatalf("uids = %d, %d", a.UID, b.UID)
	}
	if again := d.Install("com.android.chrome"); again.UID != a.UID {
		t.Fatal("reinstall changed UID")
	}
	uid, err := d.UIDOf("com.opera.browser")
	if err != nil || uid != 10001 {
		t.Fatalf("UIDOf = %d, %v", uid, err)
	}
	if _, err := d.UIDOf("absent"); err == nil {
		t.Fatal("UIDOf for absent package succeeded")
	}
	pkgs := d.Packages()
	if len(pkgs) != 2 || pkgs[0] != "com.android.chrome" {
		t.Fatalf("packages = %v", pkgs)
	}
}

func TestStorageAndFactoryReset(t *testing.T) {
	d, _ := newTestDevice(t)
	d.Install("com.yandex.browser")
	if err := d.StoragePut("com.yandex.browser", "uuid", "abc-123"); err != nil {
		t.Fatal(err)
	}
	v, ok := d.StorageGet("com.yandex.browser", "uuid")
	if !ok || v != "abc-123" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	if err := d.ClearAppData("com.yandex.browser"); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.StorageGet("com.yandex.browser", "uuid"); ok {
		t.Fatal("data survived factory reset")
	}
	if err := d.StoragePut("ghost", "k", "v"); err == nil {
		t.Fatal("put to uninstalled package succeeded")
	}
	if err := d.ClearAppData("ghost"); err == nil {
		t.Fatal("reset of uninstalled package succeeded")
	}
}

func TestDialDirect(t *testing.T) {
	d, inet := newTestDevice(t)
	startEcho(t, inet, "web.example", "US", 80)
	p := d.Install("com.android.chrome")
	conn, err := d.DialContext(context.Background(), p.UID, "web.example:80")
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("hi"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("echo = %q, %v", buf, err)
	}
	conn.Close()
	// Accounting saw the egress bytes.
	if got := d.Accounting.TxBytes.Get(fmt.Sprint(p.UID)); got != 2 {
		t.Fatalf("tx bytes = %d", got)
	}
	if got := d.Accounting.RxBytes.Get(fmt.Sprint(p.UID)); got != 2 {
		t.Fatalf("rx bytes = %d", got)
	}
}

func TestDivertBrowserRedirects(t *testing.T) {
	d, inet := newTestDevice(t)
	startEcho(t, inet, "web.example", "US", 443)
	// The proxy listens on the device's own address.
	proxyL, err := inet.ListenIP(d.IP, 8080)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan netsim.Meta, 1)
	go func() {
		c, err := proxyL.Accept()
		if err != nil {
			return
		}
		got <- c.(netsim.MetaConn).Meta()
		c.Close()
	}()

	p := d.Install("com.opera.browser")
	if err := d.DivertBrowser(p.UID, "192.168.1.100:8080"); err != nil {
		t.Fatal(err)
	}
	if !d.DiversionActive(p.UID) {
		t.Fatal("diversion not active")
	}
	conn, err := d.DialContext(context.Background(), p.UID, "web.example:443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	meta := <-got
	if !meta.Redirected || meta.OriginalDst != "web.example:443" || meta.OwnerUID != p.UID {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestDiversionOnlyAffectsTargetUID(t *testing.T) {
	d, inet := newTestDevice(t)
	startEcho(t, inet, "web.example", "US", 443)
	inet.ListenIP(d.IP, 8080) // proxy exists but should not see this
	browser := d.Install("com.diverted")
	other := d.Install("com.other")
	d.DivertBrowser(browser.UID, "192.168.1.100:8080")

	conn, err := d.DialContext(context.Background(), other.UID, "web.example:443")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.(netsim.MetaConn).Meta().Redirected {
		t.Fatal("unrelated UID was diverted")
	}
}

func TestH3BlockDropsQUIC(t *testing.T) {
	d, _ := newTestDevice(t)
	d.Net.RegisterDomain("h3.example", "US")
	p := d.Install("com.android.chrome")
	if err := d.DivertBrowser(p.UID, "192.168.1.100:8080"); err != nil {
		t.Fatal(err)
	}
	_, err := d.SendUDP(p.UID, "h3.example", 443, []byte("quic-initial"))
	var drop *ErrFirewallDrop
	if !errors.As(err, &drop) {
		t.Fatalf("err = %v, want firewall drop", err)
	}
	// DNS over UDP still passes (no receiver → delivered=false, no error).
	delivered, err := d.SendUDP(p.UID, "h3.example", 53, []byte("dns"))
	if err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("no listener but delivered")
	}
}

func TestEnsureH3BlockIdempotent(t *testing.T) {
	d, _ := newTestDevice(t)
	if err := d.EnsureH3Block(); err != nil {
		t.Fatal(err)
	}
	if err := d.EnsureH3Block(); err != nil {
		t.Fatal(err)
	}
	rules, _ := d.Firewall.Rules("filter", "OUTPUT")
	count := 0
	for _, r := range rules {
		if r.Comment == "block-http3" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("h3 block rules = %d", count)
	}
}

func TestUndivertAll(t *testing.T) {
	d, _ := newTestDevice(t)
	p := d.Install("com.x")
	d.DivertBrowser(p.UID, "192.168.1.100:8080")
	d.UndivertAll()
	if d.DiversionActive(p.UID) {
		t.Fatal("diversion survived UndivertAll")
	}
}

func TestTrustStore(t *testing.T) {
	d, _ := newTestDevice(t)
	ca, err := pki.NewCA("mitmproxy", nil)
	if err != nil {
		t.Fatal(err)
	}
	d.InstallCA(ca.Cert)
	pool := d.TrustedRoots()
	leaf, _ := ca.Issue("site.example")
	if _, err := leaf.Leaf.Verify(x509VerifyOpts(pool)); err != nil {
		t.Fatalf("verification against trust store failed: %v", err)
	}
}

func TestStubResolverLogsQueries(t *testing.T) {
	d, inet := newTestDevice(t)
	ip := inet.RegisterDomain("site.example", "US")
	p := d.Install("com.app")
	got, err := d.Resolver().Lookup(p.UID, "site.example")
	if err != nil || !got.Equal(ip) {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	qs := d.Resolver().QueriesByUID(p.UID)
	if len(qs) != 1 || qs[0].Name != "site.example" {
		t.Fatalf("queries = %+v", qs)
	}
	d.Resolver().ResetLog()
	if len(d.Resolver().Queries()) != 0 {
		t.Fatal("log survived reset")
	}
}

func TestStubResolverWireExchange(t *testing.T) {
	d, inet := newTestDevice(t)
	ip := inet.RegisterDomain("wire.example", "US")
	q := dnsmsg.NewQuery(42, "wire.example", dnsmsg.TypeA)
	raw, _ := q.Pack()
	respRaw, err := d.Resolver().Exchange(10000, raw)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Unpack(respRaw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 42 || len(resp.Answers) != 1 || !resp.Answers[0].A.Equal(ip) {
		t.Fatalf("resp = %+v", resp)
	}
	// NXDOMAIN path.
	q2 := dnsmsg.NewQuery(43, "missing.example", dnsmsg.TypeA)
	raw2, _ := q2.Pack()
	respRaw2, err := d.Resolver().Exchange(10000, raw2)
	if err != nil {
		t.Fatal(err)
	}
	resp2, _ := dnsmsg.Unpack(respRaw2)
	if resp2.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp2.Header.RCode)
	}
}

func TestDialUnknownHost(t *testing.T) {
	d, _ := newTestDevice(t)
	p := d.Install("com.app")
	if _, err := d.DialContext(context.Background(), p.UID, "ghost.example:80"); err == nil {
		t.Fatal("dial to unknown host succeeded")
	}
	if _, err := d.DialContext(context.Background(), p.UID, "no-port"); err == nil {
		t.Fatal("dial without port succeeded")
	}
}

func TestDialRejectsMalformedPort(t *testing.T) {
	d, inet := newTestDevice(t)
	startEcho(t, inet, "web.example", "US", 443)
	proxyL, err := inet.ListenIP(d.IP, 8080)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := proxyL.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	t.Cleanup(func() { proxyL.Close() })

	p := d.Install("com.opera.browser")
	if err := d.DivertBrowser(p.UID, "192.168.1.100:8080"); err != nil {
		t.Fatal(err)
	}
	var sockCreates, dialFaults int
	if err := d.Hooks.Load(&ebpfsim.Program{
		Name: "count_sock_create", Type: ebpfsim.AttachSockCreate, MaxInstructions: 4,
		Run: func(*ebpfsim.Context) ebpfsim.Action { sockCreates++; return ebpfsim.ActionPass },
	}); err != nil {
		t.Fatal(err)
	}
	d.SetDialFault(func(int, string, string) error { dialFaults++; return nil })

	for _, addr := range []string{
		"web.example:abc",
		"web.example:",
		"web.example:70000",
		"web.example:65536",
		"web.example:0",
		"web.example:-1",
	} {
		if conn, err := d.DialContext(context.Background(), p.UID, addr); err == nil {
			conn.Close()
			t.Errorf("dial %q succeeded", addr)
		}
	}
	if sockCreates != 0 || dialFaults != 0 {
		t.Fatalf("malformed ports reached the stack: sock_create=%d dial faults=%d", sockCreates, dialFaults)
	}

	// A well-formed port still passes through every hook and the redirect.
	conn, err := d.DialContext(context.Background(), p.UID, "web.example:65535")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if sockCreates != 1 || dialFaults != 1 {
		t.Fatalf("valid dial: sock_create=%d dial faults=%d, want 1 and 1", sockCreates, dialFaults)
	}
}

func TestRootedFlag(t *testing.T) {
	d, _ := newTestDevice(t)
	if d.Rooted() {
		t.Fatal("device rooted by default")
	}
	d.SetRooted(true)
	if !d.Rooted() {
		t.Fatal("SetRooted failed")
	}
}

// x509VerifyOpts builds verify options pinned to the device trust pool at
// the virtual epoch.
func x509VerifyOpts(pool *x509.CertPool) x509.VerifyOptions {
	return x509.VerifyOptions{Roots: pool, CurrentTime: time.Now()}
}

func TestEBPFSockCreateVeto(t *testing.T) {
	d, inet := newTestDevice(t)
	startEcho(t, inet, "allowed.example", "US", 80)
	startEcho(t, inet, "banned.example", "US", 80)
	p := d.Install("com.app")
	// A parental-control-style program rejecting one destination.
	err := d.Hooks.Load(&ebpfsim.Program{
		Name: "deny_banned", Type: ebpfsim.AttachSockCreate, MaxInstructions: 16,
		Run: func(ctx *ebpfsim.Context) ebpfsim.Action {
			if ctx.DstHost == "banned.example" {
				return ebpfsim.ActionDrop
			}
			return ebpfsim.ActionPass
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DialContext(context.Background(), p.UID, "banned.example:80"); err == nil {
		t.Fatal("vetoed destination dialled")
	}
	conn, err := d.DialContext(context.Background(), p.UID, "allowed.example:80")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// UDP path honours the veto too.
	if _, err := d.SendUDP(p.UID, "banned.example", 53, []byte("x")); err == nil {
		t.Fatal("vetoed UDP sent")
	}
}

func TestUDPAccounting(t *testing.T) {
	d, inet := newTestDevice(t)
	inet.RegisterDomain("udp.example", "US")
	p := d.Install("com.app")
	if _, err := d.SendUDP(p.UID, "udp.example", 5353, []byte("hello-udp")); err != nil {
		t.Fatal(err)
	}
	if got := d.Accounting.TxBytes.Get(fmt.Sprint(p.UID)); got != 9 {
		t.Fatalf("udp tx bytes = %d", got)
	}
}
