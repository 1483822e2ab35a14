package recursive

import (
	"repro/internal/cache"
	"repro/internal/dnswire"
)

// forward relays the query to the configured upstream resolvers, trying
// them in a random rotation with backoff. This is the R1 behavior of the
// paper's Figure 1; during a DDoS its retries fan a single client query
// out over many Rn resolvers (§6.2, Figure 11).
func (t *task) forward() {
	t.timeout = t.r.cfg.InitialTimeout * 2 // upstream does full resolution
	t.attempt = 0
	t.servers = append(t.serverBuf(), t.r.cfg.Forwarders...)
	t.r.rng.Shuffle(len(t.servers), func(i, j int) {
		t.servers[i], t.servers[j] = t.servers[j], t.servers[i]
	})
	t.resetTried(len(t.servers))
	t.forwardNext()
}

func (t *task) forwardNext() {
	if t.done {
		return
	}
	if t.attempt >= t.r.cfg.MaxAttempts || *t.budget <= 0 {
		t.fail()
		return
	}
	idx, ok := t.r.pickServer(t.servers, t.tried)
	if !ok {
		// Same backoff contract as the iterative path: the timeout doubles
		// per rotation over the forwarder list, not per attempt.
		t.resetTried(len(t.servers))
		t.timeout *= 2
		if t.timeout > maxTimeout {
			t.timeout = maxTimeout
		}
		idx, ok = t.r.pickServer(t.servers, t.tried)
		if !ok {
			t.fail()
			return
		}
	}
	t.markTried(idx)
	t.attempt++
	*t.budget--
	if t.attempt > 1 {
		t.r.event(kUpstreamRetry, payload{})
	}
	t.r.send(t, t.servers[idx], true)
}

func (t *task) handleForwardResponse(m *dnswire.Message) {
	if t.done {
		// Same refresh contract as the iterative path: a reply landing
		// after the client was answered stale still repopulates the cache.
		t.absorbLateResponse(m)
		return
	}
	switch m.RCode {
	case dnswire.RCodeNoError:
		if len(m.Answers) > 0 {
			t.cacheRRs(m.Answers, cache.RankAnswer)
			// Copy: m is the working set's scratch message.
			answers := append(t.answerBuf(len(m.Answers)), m.Answers...)
			t.finish(Result{RCode: dnswire.RCodeNoError, Answers: answers})
			return
		}
		// NODATA passthrough.
		if soa := soaOf(m); soa.Data != nil {
			t.cacheNegative(m, false)
			t.finish(Result{RCode: dnswire.RCodeNoError, SOA: soa})
			return
		}
		t.finish(Result{RCode: dnswire.RCodeNoError})
		return
	case dnswire.RCodeNXDomain:
		t.cacheNegative(m, true)
		t.finish(Result{RCode: dnswire.RCodeNXDomain, SOA: soaOf(m)})
		return
	default:
		// Upstream failed: rotate to the next one.
		t.r.event(kLame, payload{})
		t.forwardNext()
	}
}
