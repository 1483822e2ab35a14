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

// getJob takes a cleared job off the free list, or makes one.
func (r *Resolver) getJob() *clientJob {
	j := r.jobFree
	if j == nil {
		j = new(clientJob)
	} else {
		r.jobFree, j.next = j.next, nil
		r.jobFreeN--
	}
	j.job = j
	r.jobsOut++
	return j
}

// complete is the job's task delivering: every waiter gets res.
func (j *clientJob) complete(res Result) {
	r := j.r
	delete(r.coalesce, j.key)
	r.answer(&j.first, j.key, res)
	for i := range j.more {
		r.answer(&j.more[i], j.key, res)
	}
}

// waiter is one client awaiting a job's answer. Its query was decoded
// into the resolver's scratch message and is gone by then, so the waiter
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
	q := &r.cqMsg
	q.ResetQuery(w.id, key.name, key.qtype)
	q.RecursionDesired = w.rd
	if w.edns {
		q.AddEDNS(w.udpSize, w.do)
	}
	r.respond(w.src, r.buildResponseInto(&r.respMsg, q, res), q, w.tcp)
}

// serveClient answers a query received from a stub (or a downstream R1).
// tcp marks queries that arrived over the TCP plane. q is the scratch
// decode target: nothing keeps it past this call.
func (r *Resolver) serveClient(src netsim.Addr, q *dnswire.Message, tcp bool) {
	if q.Opcode != dnswire.OpcodeQuery || len(q.Questions) != 1 {
		resp := dnswire.NewResponse(q)
		resp.RecursionAvailable = true
		resp.RCode = dnswire.RCodeNotImp
		r.respond(src, resp, q, tcp)
		return
	}
	question := q.Questions[0]
	if question.Class != dnswire.ClassIN {
		resp := dnswire.NewResponse(q)
		resp.RecursionAvailable = true
		resp.RCode = dnswire.RCodeRefused
		r.respond(src, resp, q, tcp)
		return
	}
	name := dnswire.CanonicalName(question.Name)

	// Fragmented deployments land each query on an arbitrary backend
	// cache (§3.5): pick the shard here so coalescing is per-backend.
	shard := 0
	if n := r.cache.Shards(); n > 1 {
		shard = r.rng.Intn(n)
	}

	key := coalesceKey{name: name, qtype: question.Type, shard: shard}
	if r.coalesce == nil {
		r.coalesce = make(map[coalesceKey]*clientJob)
	}
	w := waiter{src: src, tcp: tcp, id: q.ID, rd: q.RecursionDesired}
	w.udpSize, w.do, w.edns = q.EDNS()
	if job, ok := r.coalesce[key]; ok {
		job.more = append(job.more, w)
		return
	}
	job := r.getJob()
	job.key, job.first = key, w
	r.coalesce[key] = job
	r.resolveTask(&job.task, name, question.Type, shard)
}

// HandleQuery answers a parsed client query transport-independently:
// cb receives the complete response message exactly once. cmd/recursived
// uses it to serve DNS over TCP alongside the packet path.
func (r *Resolver) HandleQuery(q *dnswire.Message, cb func(*dnswire.Message)) {
	if q.Response {
		return
	}
	if q.Opcode != dnswire.OpcodeQuery || len(q.Questions) != 1 {
		resp := dnswire.NewResponse(q)
		resp.RecursionAvailable = true
		resp.RCode = dnswire.RCodeNotImp
		cb(resp)
		return
	}
	question := q.Questions[0]
	if question.Class != dnswire.ClassIN {
		resp := dnswire.NewResponse(q)
		resp.RecursionAvailable = true
		resp.RCode = dnswire.RCodeRefused
		cb(resp)
		return
	}
	shard := 0
	if n := r.cache.Shards(); n > 1 {
		shard = r.rng.Intn(n)
	}
	r.Resolve(dnswire.CanonicalName(question.Name), question.Type, shard,
		func(res Result) { cb(r.buildResponse(q, res)) })
}

// buildResponse renders a Result as a DNS response to q.
func (r *Resolver) buildResponse(q *dnswire.Message, res Result) *dnswire.Message {
	return r.buildResponseInto(&dnswire.Message{}, q, res)
}

// buildResponseInto renders the response into resp (typically the
// resolver's scratch message) and returns it.
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

// respond packs and transmits resp to dst. UDP responses larger than the
// size the client's query advertised (512 octets without an OPT record)
// are truncated: data sections stripped, TC set, and the OPT record kept
// so the client can renegotiate or fall back to TCP. TCP responses are
// never truncated.
func (r *Resolver) respond(dst netsim.Addr, resp, q *dnswire.Message, tcp bool) {
	wire, err := resp.AppendPack(r.packBuf[:0])
	r.packBuf = wire[:0]
	if err != nil {
		return
	}
	if limit := q.UDPPayloadLimit(); !tcp && len(wire) > limit {
		qname := ""
		if len(q.Questions) == 1 {
			qname = q.Questions[0].Name
		}
		r.event(kClientTruncated, payload{probe: qname, a: uint32(len(wire)), b: uint32(limit), dst: dst})
		trunc := *resp
		trunc.Truncated = true
		trunc.Answers, trunc.Authorities, trunc.Additionals = nil, nil, nil
		for i := range resp.Additionals {
			if resp.Additionals[i].Type() == dnswire.TypeOPT {
				trunc.Additionals = resp.Additionals[i : i+1]
				break
			}
		}
		if wire, err = trunc.AppendPack(wire[:0]); err != nil {
			return
		}
	}
	if tcp && r.tcpConn != nil {
		r.tcpConn.Send(dst, wire)
		return
	}
	r.conn.Send(dst, wire)
}
