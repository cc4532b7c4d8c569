package classad

import (
	"net"
	"testing"

	"bsoap/internal/baseline"
	"bsoap/internal/core"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
)

type captureSink struct{ data []byte }

func (c *captureSink) Send(bufs net.Buffers) error {
	c.data = c.data[:0]
	for _, b := range bufs {
		c.data = append(c.data, b...)
	}
	return nil
}

func TestNewPoolDeterministic(t *testing.T) {
	a, b := NewPool("p", 20, 9), NewPool("p", 20, 9)
	for i := range a.Ads {
		if a.Ads[i] != b.Ads[i] {
			t.Fatal("pool generation not deterministic")
		}
	}
	for _, ad := range a.Ads {
		if ad.Cpus < 1 || ad.Cpus > 8 || ad.MemoryMB < 1024 {
			t.Fatalf("implausible ad: %+v", ad)
		}
	}
}

func TestTickChurnsBoundedFraction(t *testing.T) {
	p := NewPool("p", 100, 4)
	changed := p.Tick(0.1)
	if changed != 10 {
		t.Fatalf("Tick touched %d ads, want 10", changed)
	}
	if p.Tick(0) != 0 {
		t.Fatal("zero churn changed ads")
	}
	if p.Tick(2.0) != 100 {
		t.Fatal("churn above 1 must clamp")
	}
}

func TestExchangeDirtyTracking(t *testing.T) {
	p := NewPool("p", 50, 11)
	e := NewExchange(p)
	if e.Msg.AnyDirty() {
		t.Fatal("fresh exchange dirty")
	}
	// No pool changes → sync leaves everything clean (content match).
	e.Sync()
	if e.Msg.AnyDirty() {
		t.Fatal("no-op sync dirtied the message")
	}
	// Churn a few machines: only their fields become dirty.
	p.Tick(0.1)
	e.Sync()
	dirty := e.Msg.DirtyCount()
	if dirty == 0 {
		t.Fatal("churn produced no dirty leaves")
	}
	if dirty > 5*2+2 { // ≤5 distinct machines × (state+load), allowing dup picks
		t.Fatalf("churn dirtied %d leaves", dirty)
	}
}

func TestFlockExchangeMatchesOverStub(t *testing.T) {
	p := NewPool("p", 40, 2)
	e := NewExchange(p)
	sink := &captureSink{}
	stub := core.NewStub(core.Config{Width: core.WidthPolicy{Double: core.MaxWidth, Int: core.MaxWidth}}, sink)

	if _, err := stub.Call(e.Msg); err != nil {
		t.Fatal(err)
	}
	// Quiet period: pure content matches.
	for i := 0; i < 3; i++ {
		e.Sync()
		ci, err := stub.Call(e.Msg)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Match != core.ContentMatch {
			t.Fatalf("quiet exchange %d: %v", i, ci.Match)
		}
	}
	// Load changes: structural matches with few rewrites.
	p.Tick(0.2)
	e.Sync()
	ci, err := stub.Call(e.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Match != core.StructuralMatch || ci.ValuesRewritten == 0 {
		t.Fatalf("churned exchange: %+v", ci)
	}
}

func TestDecodeAdsRoundTrip(t *testing.T) {
	p := NewPool("cluster-a", 15, 6)
	p.Tick(0.5)
	e := NewExchange(p)
	e.Sync()
	doc := new(baseline.GSOAPLike).Serialize(e.Msg)

	schema := &soapdec.Schema{
		Namespace: Namespace,
		Op:        "flockUpdate",
		Params: []soapdec.ParamSpec{
			{Name: "pool", Type: wire.TString},
			{Name: "ads", Type: wire.ArrayOf(AdType())},
		},
	}
	res, err := soapdec.Decode(doc, func(string) (*soapdec.Schema, bool) { return schema, true }, false)
	if err != nil {
		t.Fatal(err)
	}
	pool, ads, err := DecodeAds(res.Msg)
	if err != nil {
		t.Fatal(err)
	}
	if pool != "cluster-a" || len(ads) != 15 {
		t.Fatalf("pool %q, %d ads", pool, len(ads))
	}
	for i := range ads {
		if ads[i] != p.Ads[i] {
			t.Fatalf("ad %d: %+v != %+v", i, ads[i], p.Ads[i])
		}
	}
}

func TestDecodeAdsRejectsWrongShape(t *testing.T) {
	m := wire.NewMessage(Namespace, "flockUpdate")
	m.AddInt("x", 1)
	if _, _, err := DecodeAds(m); err == nil {
		t.Fatal("wrong shape accepted")
	}
}
