package recursive

import (
	"repro/internal/dnswire"
	"repro/internal/netsim"
)

// clientJob is one client miss: the resolution (the embedded task, whose
// job field points back here) and the clients awaiting it. Identical
// in-flight queries share one job (query coalescing); the first waiter is
// inline: most jobs never see a second. A background fetch is a job
// without waiters. Jobs are recycled under putOQ's rule.
type clientJob struct {
	task
	key   coalesceKey // as asked; the task's name moves along CNAMEs
	first waiter
	more  []waiter
	next  *clientJob // retired-queue or free-list link
}

// getJob takes a cleared job off the working set's free list, or makes
// one.
func (r *Resolver) getJob() *clientJob {
	ws := r.work()
	j := ws.jobFree
	if j == nil {
		j = new(clientJob)
	} else {
		ws.jobFree, j.next = j.next, nil
		ws.jobFreeN--
	}
	j.job = j
	r.jobsOut++
	return j
}

// complete is the job's task delivering: every waiter gets res.
func (j *clientJob) complete(res Result) {
	r := j.r
	delete(r.ws.coalesce, j.key)
	r.answer(&j.first, j.key, res)
	for i := range j.more {
		r.answer(&j.more[i], j.key, res)
	}
}

// waiter is one client awaiting a job's answer. Its query was decoded
// into the working set's scratch message and is gone by then, so the waiter
// keeps what the response echoes or obeys: ID, RD flag and EDNS (the
// question is the job's key).
type waiter struct {
	src     netsim.Addr
	tcp     bool // arrived over the TCP plane; answer there, untruncated
	id      uint16
	rd      bool
	edns    bool
	do      bool
	udpSize uint16
}

// answer sends res to the waiter, rebuilding its query in the scratch
// message for the response builder. respMsg is packed and sent before the
// next waiter reuses it.
func (r *Resolver) answer(w *waiter, key coalesceKey, res Result) {
	ws := r.work()
	q := &ws.cqMsg
	q.ResetQuery(w.id, key.name, key.qtype)
	q.RecursionDesired = w.rd
	if w.edns {
		q.AddEDNS(w.udpSize, w.do)
	}
	r.respond(w.src, r.buildResponseInto(&ws.respMsg, q, res), q, w.tcp)
}

// serveClient answers a query received from a stub (or a downstream R1).
// tcp marks queries that arrived over the TCP plane. q is the packet's
// message or the scratch decode target: nothing keeps it past this call.
func (r *Resolver) serveClient(src netsim.Addr, q *dnswire.Message, tcp bool) {
	if resp := refusal(q); resp != nil {
		r.respond(src, resp, q, tcp)
		return
	}
	question := q.Questions[0]
	name := dnswire.CanonicalName(question.Name)
	// Pick the shard before coalescing, so coalescing is per-backend.
	shard := r.pickShard()

	ws := r.work()
	key := coalesceKey{name: name, qtype: question.Type, rid: r.rid, shard: shard}
	if ws.coalesce == nil {
		ws.coalesce = make(map[coalesceKey]*clientJob)
	}
	w := waiter{src: src, tcp: tcp, id: q.ID, rd: q.RecursionDesired}
	w.udpSize, w.do, w.edns = q.EDNS()
	if job, ok := ws.coalesce[key]; ok {
		job.more = append(job.more, w)
		return
	}
	job := r.getJob()
	job.key, job.first = key, w
	ws.coalesce[key] = job
	r.resolveTask(&job.task, name, question.Type, shard)
}

// HandleQuery answers a parsed client query transport-independently:
// cb receives the complete response message exactly once. cmd/recursived
// uses it to serve DNS over TCP alongside the packet path.
func (r *Resolver) HandleQuery(q *dnswire.Message, cb func(*dnswire.Message)) {
	if q.Response {
		return
	}
	if resp := refusal(q); resp != nil {
		cb(resp)
		return
	}
	question := q.Questions[0]
	r.Resolve(dnswire.CanonicalName(question.Name), question.Type, r.pickShard(),
		func(res Result) { cb(r.buildResponseInto(&dnswire.Message{}, q, res)) })
}

// refusal returns the answer to a query the resolver does not serve,
// nil for one it does: NOTIMP for anything but a single-question QUERY,
// REFUSED outside class IN.
func refusal(q *dnswire.Message) *dnswire.Message {
	rcode := dnswire.RCodeNotImp
	if q.Opcode == dnswire.OpcodeQuery && len(q.Questions) == 1 {
		if q.Questions[0].Class == dnswire.ClassIN {
			return nil
		}
		rcode = dnswire.RCodeRefused
	}
	resp := dnswire.NewResponse(q)
	resp.RecursionAvailable = true
	resp.RCode = rcode
	return resp
}

// pickShard lands a client query on a backend cache: an arbitrary one in
// a fragmented deployment (§3.5).
func (r *Resolver) pickShard() int {
	if n := r.cache.Shards(); n > 1 {
		return r.rng.Intn(n)
	}
	return 0
}

// buildResponseInto renders a Result as the response to q into resp
// (typically the working set's scratch message) and returns it.
func (r *Resolver) buildResponseInto(resp, q *dnswire.Message, res Result) *dnswire.Message {
	resp.ResetResponse(q)
	resp.RecursionAvailable = true
	resp.RCode = res.RCode
	resp.Answers = append(resp.Answers, res.Answers...)
	if res.SOA.Data != nil {
		resp.Authorities = append(resp.Authorities, res.SOA)
	}
	if _, do, ok := q.EDNS(); ok {
		// The client speaks EDNS0: echo an OPT advertising our own
		// receive budget (RFC 6891 §6.2.1).
		resp.AddEDNS(4096, do)
	}
	return resp
}

// respond transmits resp to dst as its message. TCP responses are never
// truncated. A UDP response whose uncompressed length
// (dnswire.Message.WireLenBound) is over the size the client's query
// advertised (512 octets without an OPT record) is packed to measure it,
// and if it is still over the limit it is truncated in place (resp is
// the caller's scratch, discarded after): data sections stripped, TC
// set, and the OPT record kept so the client can renegotiate or fall
// back to TCP. A measured response that fits goes to a byte conn (a real
// socket) as the bytes already packed.
func (r *Resolver) respond(dst netsim.Addr, resp, q *dnswire.Message, tcp bool) {
	bound, err := resp.WireLenBound()
	if err != nil {
		return
	}
	if tcp {
		r.tcpConn.SendMsg(dst, resp)
		return
	}
	if limit := q.UDPPayloadLimit(); bound > limit {
		ws := r.work()
		wire, _ := resp.AppendPack(ws.packBuf[:0]) // the bound accepted resp
		ws.packBuf = wire[:0]
		if len(wire) > limit {
			qname := ""
			if len(q.Questions) == 1 {
				qname = q.Questions[0].Name
			}
			r.event(kClientTruncated, payload{probe: qname, a: uint32(len(wire)), b: uint32(limit), dst: dst})
			resp.Truncate()
		} else if r.sendPacked(dst, wire) {
			return
		}
	}
	r.conn.SendMsg(dst, resp)
}

// sendPacked sends wire, a response respond packed, if r's conn carries
// bytes: a real socket (udprun.Conn), whose SendMsg would pack it again.
// The simulated Port carries messages, so it is never handed bytes.
func (r *Resolver) sendPacked(dst netsim.Addr, wire []byte) bool {
	if _, sim := r.conn.(*netsim.Port); sim {
		return false
	}
	bc, ok := r.conn.(interface{ Send(netsim.Addr, []byte) })
	if ok {
		bc.Send(dst, wire)
	}
	return ok
}
