package netsim

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAllocIPDistinct(t *testing.T) {
	in := New()
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		ip := in.AllocIP("US").String()
		if seen[ip] {
			t.Fatalf("duplicate IP %s", ip)
		}
		seen[ip] = true
	}
}

func TestAllocIPCountryBlocks(t *testing.T) {
	in := New()
	us := in.AllocIP("US")
	ru := in.AllocIP("RU")
	us2 := in.AllocIP("US")
	blocks := in.Blocks()
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(blocks))
	}
	find := func(ip net.IP) string {
		for _, b := range blocks {
			if b.CIDR.Contains(ip) {
				return b.Country
			}
		}
		return ""
	}
	if find(us) != "US" || find(us2) != "US" || find(ru) != "RU" {
		t.Fatalf("IPs not in country blocks: us=%v ru=%v us2=%v", us, ru, us2)
	}
}

func TestAllocIPBlockOverflow(t *testing.T) {
	in := New()
	seen := map[string]bool{}
	// More than one /16 worth of hosts.
	for i := 0; i < 70000; i++ {
		ip := in.AllocIP("DE").String()
		if seen[ip] {
			t.Fatalf("duplicate IP %s at %d", ip, i)
		}
		seen[ip] = true
	}
	var deBlocks int
	for _, b := range in.Blocks() {
		if b.Country == "DE" {
			deBlocks++
		}
	}
	if deBlocks < 2 {
		t.Fatalf("DE blocks = %d, want >= 2", deBlocks)
	}
}

func TestRegisterDomainIdempotent(t *testing.T) {
	in := New()
	a := in.RegisterDomain("example.com", "US")
	b := in.RegisterDomain("example.com", "US")
	if !a.Equal(b) {
		t.Fatalf("reregistration changed address: %v vs %v", a, b)
	}
}

func TestLookupHost(t *testing.T) {
	in := New()
	ip := in.RegisterDomain("example.com", "US")
	got, err := in.LookupHost("example.com")
	if err != nil || !got.Equal(ip) {
		t.Fatalf("LookupHost = %v, %v", got, err)
	}
	if _, err := in.LookupHost("nonexistent.example"); err == nil {
		t.Fatal("no error for unknown host")
	} else {
		var nsh *ErrNoSuchHost
		if !errors.As(err, &nsh) {
			t.Fatalf("error type %T", err)
		}
	}
	lit, err := in.LookupHost("1.2.3.4")
	if err != nil || lit.String() != "1.2.3.4" {
		t.Fatalf("literal lookup = %v, %v", lit, err)
	}
}

func TestReverseLookup(t *testing.T) {
	in := New()
	ip := in.RegisterDomain("example.com", "US")
	d, ok := in.ReverseLookup(ip)
	if !ok || d != "example.com" {
		t.Fatalf("ReverseLookup = %q, %v", d, ok)
	}
}

func TestDialRefusedWithoutListener(t *testing.T) {
	in := New()
	in.RegisterDomain("example.com", "US")
	_, err := in.Dial(context.Background(), "example.com:443")
	var refused *ErrConnRefused
	if !errors.As(err, &refused) {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestDialAndEcho(t *testing.T) {
	in := New()
	l, _, err := in.ListenDomain("echo.example", "US", 7)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(c, c)
		c.Close()
	}()
	c, err := in.Dial(context.Background(), "echo.example:7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
	c.Close()
}

func TestConnAddresses(t *testing.T) {
	in := New()
	l, ip, err := in.ListenDomain("addr.example", "FR", 443)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := in.Dial(context.Background(), "addr.example:443",
		WithSource(net.IPv4(10, 0, 0, 9), 5555))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RemoteAddr().String(); got != fmt.Sprintf("%s:443", ip) {
		t.Fatalf("RemoteAddr = %s", got)
	}
	if got := c.LocalAddr().String(); got != "10.0.0.9:5555" {
		t.Fatalf("LocalAddr = %s", got)
	}
	srv := <-accepted
	if got := srv.RemoteAddr().String(); got != "10.0.0.9:5555" {
		t.Fatalf("server RemoteAddr = %s", got)
	}
}

func TestConnMetaPropagates(t *testing.T) {
	in := New()
	l, _, err := in.ListenDomain("meta.example", "US", 80)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, _ := l.Accept()
		mc := c.(MetaConn)
		if mc.Meta().OwnerUID != 10089 || mc.Meta().OriginalDst != "orig.example:443" {
			t.Errorf("server meta = %+v", mc.Meta())
		}
		c.Close()
	}()
	c, err := in.Dial(context.Background(), "meta.example:80",
		WithMeta(Meta{OwnerUID: 10089, OriginalDst: "orig.example:443", Redirected: true}))
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta().OwnerUID != 10089 {
		t.Fatalf("client meta = %+v", c.Meta())
	}
	c.Close()
}

func TestCloseGivesEOFAfterDrain(t *testing.T) {
	a, b := Pair(TCPAddr(net.IPv4(1, 1, 1, 1), 1), TCPAddr(net.IPv4(2, 2, 2, 2), 2), Meta{})
	a.Write([]byte("tail"))
	a.Close()
	buf := make([]byte, 10)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("write to closed pipe succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	a, _ := Pair(TCPAddr(net.IPv4(1, 1, 1, 1), 1), TCPAddr(net.IPv4(2, 2, 2, 2), 2), Meta{})
	a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	_, err := a.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline wait too long")
	}
}

func TestDeadlineClearedAllowsRead(t *testing.T) {
	a, b := Pair(TCPAddr(net.IPv4(1, 1, 1, 1), 1), TCPAddr(net.IPv4(2, 2, 2, 2), 2), Meta{})
	a.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	a.SetReadDeadline(time.Time{})
	b.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := a.Read(buf); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestListenerClose(t *testing.T) {
	in := New()
	l, ip, err := in.ListenDomain("closer.example", "US", 80)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	if err := <-done; err != net.ErrClosed {
		t.Fatalf("Accept err = %v", err)
	}
	if in.HasListener(TCPAddr(ip, 80).String()) {
		t.Fatal("listener still registered")
	}
	l.Close() // idempotent
}

func TestAddressInUse(t *testing.T) {
	in := New()
	_, ip, err := in.ListenDomain("dup.example", "US", 80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.ListenIP(ip, 80); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

func TestHTTPOverNetsim(t *testing.T) {
	in := New()
	l, _, err := in.ListenDomain("web.example", "US", 80)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello %s", r.URL.Path)
	})}
	go srv.Serve(l)
	defer srv.Close()

	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return in.Dial(ctx, addr)
		},
	}}
	resp, err := client.Get("http://web.example/page")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello /page" {
		t.Fatalf("body = %q", body)
	}
}

func TestDeliverTo(t *testing.T) {
	in := New()
	l, ip, err := in.ListenDomain("proxy.example", "US", 8080)
	if err != nil {
		t.Fatal(err)
	}
	client, server := Pair(TCPAddr(net.IPv4(10, 0, 0, 1), 40000), TCPAddr(ip, 8080),
		Meta{OriginalDst: "real.example:443", Redirected: true})
	if err := in.DeliverTo(TCPAddr(ip, 8080).String(), server); err != nil {
		t.Fatal(err)
	}
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.(MetaConn).Meta().OriginalDst; got != "real.example:443" {
		t.Fatalf("OriginalDst = %q", got)
	}
	client.Close()
}

func TestDeliverToUnknownAddr(t *testing.T) {
	in := New()
	_, server := Pair(TCPAddr(net.IPv4(1, 1, 1, 1), 1), TCPAddr(net.IPv4(2, 2, 2, 2), 2), Meta{})
	if err := in.DeliverTo("9.9.9.9:1", server); err == nil {
		t.Fatal("DeliverTo to unknown address succeeded")
	}
}

func TestDialContextCancelled(t *testing.T) {
	in := New()
	in.RegisterDomain("ctx.example", "US")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := in.Dial(ctx, "ctx.example:80"); err == nil {
		t.Fatal("dial with cancelled context succeeded")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	in := New()
	serverAddr := &net.UDPAddr{IP: net.IPv4(20, 0, 0, 53), Port: 53}
	srv, err := in.ListenUDP(serverAddr.IP, 53)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := in.ListenUDP(net.IPv4(192, 168, 1, 2), 40000)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 512)
		n, from, err := srv.ReadFrom(buf)
		if err != nil {
			return
		}
		srv.WriteTo(append([]byte("re:"), buf[:n]...), from)
	}()
	if _, err := cli.WriteTo([]byte("ping"), serverAddr); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, from, err := cli.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "re:ping" || from.Port != 53 {
		t.Fatalf("got %q from %v", buf[:n], from)
	}
}

func TestUDPUnreachable(t *testing.T) {
	in := New()
	if in.SendUDP(&net.UDPAddr{IP: net.IPv4(1, 1, 1, 1), Port: 1},
		&net.UDPAddr{IP: net.IPv4(2, 2, 2, 2), Port: 2}, []byte("x")) {
		t.Fatal("SendUDP reported delivery with no receiver")
	}
}

func TestUDPCloseUnbinds(t *testing.T) {
	in := New()
	ep, err := in.ListenUDP(net.IPv4(20, 0, 0, 9), 99)
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
	if _, err := in.ListenUDP(net.IPv4(20, 0, 0, 9), 99); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestH3Advertisement(t *testing.T) {
	in := New()
	in.AdvertiseH3("h3.example")
	if !in.SupportsH3("h3.example") || in.SupportsH3("h1.example") {
		t.Fatal("H3 advertisement wrong")
	}
}

func TestConcurrentDials(t *testing.T) {
	in := New()
	l, _, err := in.ListenDomain("busy.example", "US", 80)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				br := bufio.NewReader(c)
				line, _ := br.ReadString('\n')
				fmt.Fprintf(c, "ok %s", line)
				c.Close()
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := in.Dial(context.Background(), "busy.example:80")
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			fmt.Fprintf(c, "req%d\n", i)
			data, _ := io.ReadAll(c)
			if !strings.HasPrefix(string(data), fmt.Sprintf("ok req%d", i)) {
				t.Errorf("resp %d = %q", i, data)
			}
			c.Close()
		}(i)
	}
	wg.Wait()
}

// Property: every payload written in one chunk is read back intact across
// the pipe regardless of read buffer sizing.
func TestPropertyPipePreservesBytes(t *testing.T) {
	f := func(payload []byte, readSize uint8) bool {
		a, b := Pair(TCPAddr(net.IPv4(1, 1, 1, 1), 1), TCPAddr(net.IPv4(2, 2, 2, 2), 2), Meta{})
		go func() {
			a.Write(payload)
			a.Close()
		}()
		rs := int(readSize)%64 + 1
		var got []byte
		buf := make([]byte, rs)
		for {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		return string(got) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocated IPs always fall inside a block allocated to the same
// country.
func TestPropertyAllocWithinCountryBlock(t *testing.T) {
	f := func(picks []bool) bool {
		in := New()
		for _, us := range picks {
			country := "RU"
			if us {
				country = "US"
			}
			ip := in.AllocIP(country)
			found := false
			for _, b := range in.Blocks() {
				if b.CIDR.Contains(ip) {
					if b.Country != country {
						return false
					}
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestByteAndCloseHooks(t *testing.T) {
	a, b := Pair(TCPAddr(net.IPv4(1, 1, 1, 1), 1), TCPAddr(net.IPv4(2, 2, 2, 2), 2), Meta{})
	var wrote, read int
	a.SetByteHooks(func(n int) { wrote += n }, func(n int) { read += n })
	a.Write([]byte("12345"))
	go b.Write([]byte("abc"))
	buf := make([]byte, 3)
	io.ReadFull(a, buf)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // a second close is a no-op
		t.Fatal(err)
	}
	if wrote != 5 || read != 3 {
		t.Fatalf("wrote=%d read=%d", wrote, read)
	}
	// The peer drains what was written, then sees EOF.
	got, err := io.ReadAll(b)
	if err != nil || string(got) != "12345" {
		t.Fatalf("peer read %q, %v", got, err)
	}
}

func TestDomainsListing(t *testing.T) {
	in := New()
	in.RegisterDomain("b.example", "US")
	in.RegisterDomain("a.example", "DE")
	got := in.Domains()
	if len(got) != 2 || got[0] != "a.example" || got[1] != "b.example" {
		t.Fatalf("domains = %v", got)
	}
}
