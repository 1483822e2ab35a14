package recursive

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dnssec"
	"repro/internal/dnswire"
	"repro/internal/netsim"
	"repro/internal/zone"
)

type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// signedWorld builds the standard hierarchy with cachetest.nl signed, its
// resolver anchored at anchor ("" for none) with the zone key, and
// returns the key.
func signedWorld(t *testing.T, anchor string) (*world, *dnssec.Key) {
	t.Helper()
	key, err := dnssec.GenerateKey("cachetest.nl.", dnssec.FlagZone,
		detRand{rand.New(rand.NewSource(11))})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	if anchor != "" {
		cfg.TrustAnchors = map[string]dnswire.DNSKEY{anchor: key.Public}
	}
	w := newWorld(t, cfg)
	for _, srv := range []*struct{ z *zone.Zone }{
		{w.ns1.Zones()[0]}, {w.ns2.Zones()[0]},
	} {
		if err := dnssec.SignZone(srv.z, key, epoch, 7*24*time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	return w, key
}

// TestValidationAcceptsSignedAnswers: a validating resolver resolves a
// signed zone normally and keeps the signatures with the answer.
func TestValidationAcceptsSignedAnswers(t *testing.T) {
	w, _ := signedWorld(t, "cachetest.nl.")
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail {
		t.Fatalf("signed resolution failed: %+v", res)
	}
	// The client did not set DO, so it gets plain answers; the resolver
	// caches the signature alongside the data.
	sig := w.res.Cache().Get(cacheKeyRRSIG("1414.cachetest.nl."), 0)
	if !sig.Hit {
		t.Error("RRSIG not cached with the validated answer")
	}
	if w.res.Stats().Bogus != 0 {
		t.Errorf("bogus count = %d", w.res.Stats().Bogus)
	}
}

// TestValidationRejectsForgedAnswers: when the authoritatives serve
// altered data whose signatures no longer match, the validating resolver
// answers SERVFAIL; a non-validating one accepts the forgery.
func TestValidationRejectsForgedAnswers(t *testing.T) {
	w, _ := signedWorld(t, "cachetest.nl.")
	forge(t, w)
	res := w.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if !res.ServFail {
		t.Fatalf("validating resolver accepted a forged answer: %+v", res)
	}
	if w.res.Stats().Bogus == 0 {
		t.Error("no bogus answers counted")
	}

	wPlain, _ := signedWorld(t, "")
	forge(t, wPlain)
	res = wPlain.resolve(t, "1414.cachetest.nl.", dnswire.TypeAAAA)
	if res.ServFail {
		t.Fatalf("non-validating resolver should accept: %+v", res)
	}
}

// forge changes 1414.cachetest.nl's AAAA *after* signing: the RRSIG no
// longer covers the data (a cache-poisoning / tampering stand-in).
func forge(t *testing.T, w *world) {
	t.Helper()
	for _, z := range []*zone.Zone{w.ns1.Zones()[0], w.ns2.Zones()[0]} {
		if err := z.Replace("1414.cachetest.nl.", dnswire.TypeAAAA, 60,
			dnswire.AAAA{Addr: dnswire.MustAddr("2001:db8::bad")}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestForwarderValidatesRelayedAnswers: a forwarder with trust anchors
// validates what its upstream relays as an iterative resolver validates
// an authoritative's answer. The upstream is anchored at another zone
// only, so it asks with DO and passes cachetest.nl's signatures on to
// DO clients without checking them. Signed data resolves through it; a
// forgery it accepted is answered SERVFAIL and nothing is cached.
func TestForwarderValidatesRelayedAnswers(t *testing.T) {
	for _, forged := range []bool{false, true} {
		w, key := signedWorld(t, "example.")
		if forged {
			forge(t, w)
		}
		fwd := NewResolver(w.clk, Config{Forwarders: []netsim.Addr{resAddr},
			TrustAnchors: map[string]dnswire.DNSKEY{"cachetest.nl.": key.Public}})
		fwd.Attach(w.net, "10.0.0.1")
		res := resolveOn(t, w.clk, fwd, "1414.cachetest.nl.", dnswire.TypeAAAA)
		if !w.res.Cache().Get(cacheKeyRRSIG("1414.cachetest.nl."), 0).Hit {
			t.Fatalf("forged=%v: the upstream cached no signature to relay", forged)
		}
		bogus, sets := fwd.Stats().Bogus, fwd.Cache().Len()
		if forged {
			if !res.ServFail || bogus == 0 || sets != 0 {
				t.Errorf("forged: servfail=%v bogus=%d cached sets=%d, want SERVFAIL, bogus, nothing cached",
					res.ServFail, bogus, sets)
			}
			continue
		}
		if res.ServFail || bogus != 0 || len(res.Answers) != 1 || res.Answers[0].Type() != dnswire.TypeAAAA {
			t.Errorf("signed: servfail=%v bogus=%d answers=%v, want the one AAAA", res.ServFail, bogus, res.Answers)
		}
		if !fwd.Cache().Get(cacheKeyRRSIG("1414.cachetest.nl."), 0).Hit {
			t.Error("signed: the forwarder did not cache the relayed signature")
		}
	}
}

// TestValidationIgnoresUnanchoredZones: answers from zones without a
// trust anchor pass through a validating resolver unsigned (insecure).
func TestValidationIgnoresUnanchoredZones(t *testing.T) {
	w, _ := signedWorld(t, "cachetest.nl.")
	// other.nl is unsigned and unanchored.
	res := w.resolve(t, "www.other.nl.", dnswire.TypeAAAA)
	if res.ServFail {
		t.Fatalf("insecure zone rejected: %+v", res)
	}
}

func cacheKeyRRSIG(name string) cache.Key {
	return cache.Key{Name: name, Type: dnswire.TypeRRSIG}
}
