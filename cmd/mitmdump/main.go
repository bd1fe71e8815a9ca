// Command mitmdump runs the Panoptes MITM proxy on real OS sockets as an
// explicit HTTP(S) proxy — the standalone equivalent of the paper's
// mitmproxy deployment. Point any HTTP client at it:
//
//	mitmdump -addr 127.0.0.1:8080 -ca-dir ./ca
//	curl --proxy http://127.0.0.1:8080 --cacert ca/mitm-ca.pem https://example.com/
//
// Every intercepted exchange prints as a flow line; requests carrying
// the taint header (see -token) are classified engine, others native,
// exactly as in the testbed. Flows can be persisted with -out.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"panoptes/internal/capture"
	"panoptes/internal/mitm"
	"panoptes/internal/obs"
	"panoptes/internal/pki"
	"panoptes/internal/sink"
	"panoptes/internal/taint"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:8080", "listen address")
		caDir  = flag.String("ca-dir", "panoptes-ca", "directory for the interception CA (created/reused)")
		token  = flag.String("token", "", "taint token marking engine traffic (default: random)")
		outDir = flag.String("out", "", "directory for JSONL flow databases on exit")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090)")
		statsEvery  = flag.Duration("stats-every", 10*time.Second, "period of the one-line runtime stats summary (0 disables)")

		sinkSpecs  = flag.String("sink", "", "export sinks, comma-separated: http:URL (NDJSON bulk POST), file:DIR (rotating gzip JSONL), mem (in-memory smoke)")
		sinkBatch  = flag.Int("sink-batch", 0, "export batch size (default 64)")
		sinkQueue  = flag.Int("sink-queue", 0, "in-flight export batches per sink (default 8)")
		sinkPolicy = flag.String("sink-policy", "drop", "full export queue policy: drop (shed batches) or block (backpressure interception)")
	)
	flag.Parse()

	ca, err := loadOrCreateCA(*caDir)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "mitmdump: CA at %s (install %s in your client's trust store)\n",
		*caDir, filepath.Join(*caDir, "mitm-ca.pem"))

	if *token == "" {
		*token = taint.NewToken()
	}
	db := capture.NewDB()
	splitter := taint.NewSplitter(*token, db, nil)

	// Standalone export plane: outside the testbed flows are never tagged
	// with navigation attempts, so each committed flow exports as soon as
	// its batch flushes (wall clock, wall backends).
	var exporter *sink.Exporter
	if *sinkSpecs != "" {
		sinks, err := sink.ParseSpecs(*sinkSpecs)
		if err != nil {
			fatalf("%v", err)
		}
		policy, err := sink.ParsePolicy(*sinkPolicy)
		if err != nil {
			fatalf("%v", err)
		}
		exporter = sink.NewExporter(
			sink.Config{BatchSize: *sinkBatch, Queue: *sinkQueue, Policy: policy},
			sinks...)
		db.SetTap(exporter)
		fmt.Fprintf(os.Stderr, "mitmdump: export plane wired (%d sinks, policy=%s)\n", len(sinks), policy)
	}

	dialer := &net.Dialer{Timeout: 15 * time.Second}
	proxy, err := mitm.New(mitm.Config{
		CA: ca,
		Dial: func(ctx context.Context, a string) (net.Conn, error) {
			return dialer.DialContext(ctx, "tcp", a)
		},
		// UpstreamRoots nil: the system pool validates real servers.
	})
	if err != nil {
		fatalf("%v", err)
	}
	proxy.Use(splitter)
	proxy.Use(printAddon{})

	if *metricsAddr != "" {
		obs.ServeMetrics(*metricsAddr, obs.Default, func(err error) {
			fmt.Fprintf(os.Stderr, "mitmdump: metrics server: %v\n", err)
		})
		fmt.Fprintf(os.Stderr, "mitmdump: observability on http://%s (/metrics, /debug/vars, /debug/pprof)\n", *metricsAddr)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "mitmdump: proxying on %s (taint token %s)\n", *addr, *token)

	done := make(chan struct{})
	if *statsEvery > 0 {
		go statsLoop(*statsEvery, done)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	go func() {
		<-stop
		l.Close()
	}()
	if err := proxy.Serve(l); err != nil {
		fmt.Fprintf(os.Stderr, "mitmdump: serve: %v\n", err)
	}
	close(done)
	if exporter != nil {
		if err := exporter.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mitmdump: sink close: %v\n", err)
		}
		for _, s := range exporter.Stats() {
			fmt.Fprintf(os.Stderr, "mitmdump: sink %s: %d published, %d dropped, %d breaker opens\n",
				s.Name, s.Published, s.Dropped, s.BreakerOpens)
		}
	}
	printStats()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err == nil {
			writeStore(filepath.Join(*outDir, "engine.jsonl"), db.Engine)
			writeStore(filepath.Join(*outDir, "native.jsonl"), db.Native)
			fmt.Fprintf(os.Stderr, "mitmdump: %d engine / %d native flows written to %s\n",
				db.Engine.Len(), db.Native.Len(), *outDir)
		}
	}
}

// statsLoop prints the periodic one-line runtime summary, driven by the
// obs registry the proxy instruments itself against. Only deltas make a
// line: an idle proxy stays quiet.
func statsLoop(every time.Duration, done <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	var lastReqs int64
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if reqs := int64(obs.Default.Sum("mitm_requests_total")); reqs != lastReqs {
				lastReqs = reqs
				printStats()
			}
		}
	}
}

// printStats emits the one-line stats summary.
func printStats() {
	r := obs.Default
	fmt.Fprintf(os.Stderr,
		"mitmdump: stats: %d requests (%d https, %d http), %d bytes up / %d down, %d active conns, %d handshake failures, %d resumed handshakes, %d reused conns\n",
		int64(r.Sum("mitm_requests_total")),
		r.Counter("mitm_requests_total", "scheme", "https").Value(),
		r.Counter("mitm_requests_total", "scheme", "http").Value(),
		r.Counter("mitm_bytes_total", "dir", "up").Value(),
		r.Counter("mitm_bytes_total", "dir", "down").Value(),
		int64(r.Gauge("mitm_active_conns").Value()),
		r.Counter("mitm_handshakes_total", "result", "fail").Value(),
		int64(r.Sum("mitm_handshake_resumed_total")),
		r.Counter("mitm_conn_reuse_total", "result", "reused").Value())
}

// printAddon logs each completed flow to stdout.
type printAddon struct{}

func (printAddon) Request(f *capture.Flow, req *http.Request) {}

func (printAddon) Response(f *capture.Flow, resp *http.Response) {
	fmt.Printf("[%s] %-6s %s %s://%s%s  %d\n",
		f.Origin, f.Method, f.Time.Format("15:04:05"), f.Scheme, f.Host, f.Path, f.Status)
}

func loadOrCreateCA(dir string) (*pki.CA, error) {
	certPath := filepath.Join(dir, "mitm-ca.pem")
	keyPath := filepath.Join(dir, "mitm-ca-key.pem")
	certPEM, cerr := os.ReadFile(certPath)
	keyPEM, kerr := os.ReadFile(keyPath)
	if cerr == nil && kerr == nil {
		return pki.LoadCA(certPEM, keyPEM, nil)
	}
	ca, err := pki.NewCA("panoptes mitmdump CA", nil)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	if err := os.WriteFile(certPath, ca.PEM(), 0o644); err != nil {
		return nil, err
	}
	kp, err := ca.KeyPEM()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(keyPath, kp, 0o600); err != nil {
		return nil, err
	}
	return ca, nil
}

func writeStore(path string, s *capture.Store) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	s.WriteJSONL(f)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mitmdump: "+format+"\n", args...)
	os.Exit(1)
}
