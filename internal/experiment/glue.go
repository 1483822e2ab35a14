package experiment

import (
	"time"

	"repro/internal/clock"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/stub"
	"repro/internal/vantage"
)

// Table5 reproduces Appendix A's Table 5: the distribution of TTLs that
// vantage points see for records that exist both as parent-side glue
// (referral TTL 3600 s) and as child-side authoritative data (TTL 60 s).
type Table5 struct {
	Total int
	// AboveParent counts TTLs above the parent's 3600 s (unclear origin).
	AboveParent int
	// ExactParent counts the parent's 3600 s (referral data returned).
	ExactParent int
	// Between counts 60 < TTL < 3600 (parent data, decremented or
	// rewritten).
	Between int
	// ExactChild counts the child's 60 s (authoritative data).
	ExactChild int
	// BelowChild counts TTL < 60 (authoritative data, decremented).
	BelowChild int
}

// AuthoritativeShare is the fraction answered from the child
// (authoritative) side, the paper's ~95%.
func (t Table5) AuthoritativeShare() float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.ExactChild+t.BelowChild) / float64(t.Total)
}

// GlueResult holds both Table 5 columns (NS and A record queries).
type GlueResult struct {
	NS Table5
	A  Table5
}

// childNSTTL is the child zone's NS/A TTL in the glue experiment (the
// paper configured 60 s at the authoritatives vs 3600 s referral glue at
// the parent).
const childNSTTL = 60

// runGlueTestbed runs one cell of the Appendix A experiment: the parent
// keeps the 3600 s delegation records while the child's own NS and
// nameserver A records carry 60 s; vantage points then ask their
// recursives for the NS and A records and the distribution of returned
// TTLs shows which side recursives trust. It returns the tallies plus the
// testbed for metric collection.
func runGlueTestbed(base TestbedConfig) (*GlueResult, *Testbed) {
	base.TTL = 3600
	tb := NewTestbed(base)
	// Lower the child-side NS/A TTLs to 60 s, diverging from the
	// parent's 3600 s glue.
	var nsData []dnswire.RData
	for i, addr := range tb.AuthAddrs {
		host := "ns" + itoa(i+1) + "." + Domain
		nsData = append(nsData, dnswire.NS{Host: host})
		if err := tb.AuthZone.Replace(host, dnswire.TypeA, childNSTTL,
			dnswire.A{Addr: dnswire.MustAddr(string(addr))}); err != nil {
			panic(err)
		}
	}
	if err := tb.AuthZone.Replace(Domain, dnswire.TypeNS, childNSTTL, nsData...); err != nil {
		panic(err)
	}

	res := &GlueResult{}
	// Each VP first warms the delegation path with its AAAA name, then
	// asks for the NS and the A record.
	for i, probe := range tb.Pop.Probes {
		client := stub.New(tb.Clk, stub.Config{})
		client.Attach(tb.Net, netsim.Addr("glue-probe-"+itoa(i+1)))
		for _, rec := range probe.Recursives {
			rec := rec
			client := client
			warm := vantage.QName(probe.ID, Domain)
			clock.AfterFunc(tb.Clk, time.Duration(i)*time.Millisecond, func() {
				client.Query(rec, warm, dnswire.TypeAAAA, func(stub.Result) {
					client.Query(rec, Domain, dnswire.TypeNS, func(r stub.Result) {
						tally(&res.NS, r, dnswire.TypeNS)
					})
					client.Query(rec, "ns1."+Domain, dnswire.TypeA, func(r stub.Result) {
						tally(&res.A, r, dnswire.TypeA)
					})
				})
			})
		}
	}
	tb.Clk.RunFor(10 * time.Minute)
	return res, tb
}

// tally buckets one answer's TTL into Table 5.
func tally(t *Table5, r stub.Result, want dnswire.Type) {
	if r.Err != nil || r.Msg == nil || r.Msg.RCode != dnswire.RCodeNoError {
		return
	}
	for _, rr := range r.Msg.Answers {
		if rr.Type() != want {
			continue
		}
		t.Total++
		switch ttl := rr.TTL; {
		case ttl > 3600:
			t.AboveParent++
		case ttl == 3600:
			t.ExactParent++
		case ttl > childNSTTL:
			t.Between++
		case ttl == childNSTTL:
			t.ExactChild++
		default:
			t.BelowChild++
		}
		return
	}
}
