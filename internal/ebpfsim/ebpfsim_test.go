package ebpfsim

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestLoadAndFire(t *testing.T) {
	r := NewRegistry()
	var events []int
	err := r.Load(&Program{
		Name: "rec", Type: AttachEgress, MaxInstructions: 10,
		Run: func(ctx *Context) Action { events = append(events, ctx.Bytes); return ActionPass },
	})
	if err != nil {
		t.Fatal(err)
	}
	if a := r.Fire(AttachEgress, &Context{UID: 1, Bytes: 42}); a != ActionPass {
		t.Fatalf("action = %v", a)
	}
	if len(events) != 1 || events[0] != 42 {
		t.Fatalf("events = %v", events)
	}
	// Hooks without programs pass.
	if a := r.Fire(AttachIngress, &Context{}); a != ActionPass {
		t.Fatal("empty hook dropped")
	}
}

func TestLoadValidation(t *testing.T) {
	r := NewRegistry()
	cases := []*Program{
		nil,
		{Name: "x", Type: AttachEgress, MaxInstructions: 10},                               // nil Run
		{Type: AttachEgress, MaxInstructions: 10, Run: func(*Context) Action { return 0 }}, // no name
		{Name: "x", Type: "bogus", MaxInstructions: 10, Run: func(*Context) Action { return 0 }},
		{Name: "x", Type: AttachEgress, MaxInstructions: 0, Run: func(*Context) Action { return 0 }},
		{Name: "x", Type: AttachEgress, MaxInstructions: VerifierBudget + 1, Run: func(*Context) Action { return 0 }},
	}
	for i, p := range cases {
		if err := r.Load(p); err == nil {
			t.Errorf("case %d: invalid program loaded", i)
		}
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	r := NewRegistry()
	mk := func() *Program {
		return &Program{Name: "dup", Type: AttachEgress, MaxInstructions: 1,
			Run: func(*Context) Action { return ActionPass }}
	}
	if err := r.Load(mk()); err != nil {
		t.Fatal(err)
	}
	if err := r.Load(mk()); err == nil {
		t.Fatal("duplicate accepted")
	}
	// Same name on a different hook is fine.
	p := mk()
	p.Type = AttachIngress
	if err := r.Load(p); err != nil {
		t.Fatal(err)
	}
}

func TestDropWins(t *testing.T) {
	r := NewRegistry()
	r.Load(&Program{Name: "pass", Type: AttachSockCreate, MaxInstructions: 1,
		Run: func(*Context) Action { return ActionPass }})
	r.Load(&Program{Name: "drop443", Type: AttachSockCreate, MaxInstructions: 1,
		Run: func(ctx *Context) Action {
			if ctx.DstPort == 443 && ctx.Proto == "udp" {
				return ActionDrop
			}
			return ActionPass
		}})
	if a := r.Fire(AttachSockCreate, &Context{Proto: "udp", DstPort: 443}); a != ActionDrop {
		t.Fatal("drop did not win")
	}
	if a := r.Fire(AttachSockCreate, &Context{Proto: "tcp", DstPort: 443}); a != ActionPass {
		t.Fatal("tcp dropped")
	}
}

func TestMapBasics(t *testing.T) {
	m := NewMap("test", 2)
	if err := m.Add("a", 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("a", 3); err != nil {
		t.Fatal(err)
	}
	if got := m.Get("a"); got != 8 {
		t.Fatalf("a = %d", got)
	}
	if got := m.Get("absent"); got != 0 {
		t.Fatalf("absent = %d", got)
	}
	m.Add("b", 1)
	if err := m.Add("c", 1); err == nil {
		t.Fatal("full map accepted new key")
	}
	// Existing keys still updatable at capacity.
	if err := m.Add("b", 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Get("b"); got != 2 {
		t.Fatalf("b = %d", got)
	}
	m.Reset()
	if m.Get("a") != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestTrafficAccounting(t *testing.T) {
	r := NewRegistry()
	ta, err := NewTrafficAccounting(r)
	if err != nil {
		t.Fatal(err)
	}
	r.Fire(AttachEgress, &Context{UID: 10089, Bytes: 100})
	r.Fire(AttachEgress, &Context{UID: 10089, Bytes: 50})
	r.Fire(AttachEgress, &Context{UID: 10090, Bytes: 7})
	r.Fire(AttachIngress, &Context{UID: 10089, Bytes: 900})
	if got := ta.TxBytes.Get("10089"); got != 150 {
		t.Fatalf("tx 10089 = %d", got)
	}
	if got := ta.TxPackets.Get("10089"); got != 2 {
		t.Fatalf("txp 10089 = %d", got)
	}
	if got := ta.RxBytes.Get("10089"); got != 900 {
		t.Fatalf("rx 10089 = %d", got)
	}
	if got := ta.TxBytes.Get("10090"); got != 7 {
		t.Fatalf("tx 10090 = %d", got)
	}
}

func TestTrafficAccountingDoubleLoadFails(t *testing.T) {
	r := NewRegistry()
	if _, err := NewTrafficAccounting(r); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrafficAccounting(r); err == nil {
		t.Fatal("second accounting load succeeded")
	}
}

func TestConcurrentFire(t *testing.T) {
	r := NewRegistry()
	ta, _ := NewTrafficAccounting(r)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Fire(AttachEgress, &Context{UID: 42, Bytes: 1})
			}
		}()
	}
	wg.Wait()
	if got := ta.TxBytes.Get("42"); got != 8000 {
		t.Fatalf("tx = %d, want 8000", got)
	}
}

// Property: accounting sums equal the sum of event sizes per UID.
func TestPropertyAccountingSums(t *testing.T) {
	f := func(events []uint8) bool {
		r := NewRegistry()
		ta, err := NewTrafficAccounting(r)
		if err != nil {
			return false
		}
		want := map[int]uint64{}
		for i, b := range events {
			uid := 10000 + i%3
			r.Fire(AttachEgress, &Context{UID: uid, Bytes: int(b)})
			want[uid] += uint64(b)
		}
		for uid, sum := range want {
			if ta.TxBytes.Get(fmt.Sprint(uid)) != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFireAccounting(b *testing.B) {
	r := NewRegistry()
	NewTrafficAccounting(r)
	ctx := &Context{UID: 10089, Bytes: 1400}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Fire(AttachEgress, ctx)
	}
}
