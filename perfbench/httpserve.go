package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/debruijn"
	"repro/internal/digraph"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// serve-http: a prebuilt cmd/serve at its default B(2,8), started with
// -workers 2 on loopback and driven by 2 closed-loop client connections.
// Set-up creates 100 long-lived sessions over 10 tenants (no admission,
// no deadlines). Each client owns a fixed half of the sessions and sends
// 64-packet POST /v1/run requests; client 0 also closes and re-creates a
// churn session every 50 requests. Session ids, packet seeds and the
// chaos seed all follow from --seed, so every session's results repeat
// exactly. It is the only workload that reaches serve and HTTP, with
// long-lived self-healing sessions under always-on chaos.

const (
	serveD, serveDiam = 2, 8 // cmd/serve's default network
	serveSessions     = 100
	serveTenants      = 10
	servePackets      = 64
	serveClients      = 2
	serveWorkers      = 2
	serveWarmup       = 100 // requests per client before timing; fixed, so its counts repeat exactly
	serveChurnEvery   = 50
	serveBodies       = 1 << 14 // pregenerated request bodies per client; reused cyclically
	serveHeapEvery    = 2000    // traced: sample the server heap every this many timed requests
	serveHeapAt       = 8000    // heap_live_mb is read after this many timed requests; the timed phase lasts until then
	serveWindow       = 1.0     // seconds per bench.pkts_per_wall_s window
)

// windowRates splits [0, span) into whole windows of width seconds and
// returns each window's sum of counts per second; events are (second,
// count) pairs. A span shorter than one window gives one rate over it.
func windowRates(at, count []float64, width, span float64) []float64 {
	n := int(span / width)
	if n < 1 {
		n, width = 1, span
	}
	sums := make([]float64, n)
	for i, t := range at {
		if w := int(t / width); w < n {
			sums[w] += count[i]
		}
	}
	for i := range sums {
		sums[i] /= width
	}
	return sums
}

// server is one running cmd/serve process.
type server struct {
	cmd            *exec.Cmd
	base           string
	http           *http.Client
	stdout, stderr bytes.Buffer
	done           chan struct{} // closed when the process has exited
	exitErr        error         // valid once done is closed
}

// startServer starts bin on a free loopback port and waits until it
// answers.
func startServer(bin string, seed int64) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	s := &server{
		base: "http://" + addr,
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients},
		},
		done: make(chan struct{}),
	}
	s.cmd = exec.Command(bin, "-addr", addr, "-d", strconv.Itoa(serveD), "-diam", strconv.Itoa(serveDiam),
		"-workers", strconv.Itoa(serveWorkers), "-chaos-seed", strconv.FormatInt(seed, 10))
	s.cmd.Stdout, s.cmd.Stderr = &s.stdout, &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.exitErr = s.cmd.Wait()
		close(s.done)
	}()
	deadline := now().Add(30 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/v1/sessions")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse; the status decides
			cerr := resp.Body.Close()
			if resp.StatusCode == http.StatusOK && cerr == nil {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("server exited before it was ready: %v: %s", s.exitErr, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("server not ready after 30s")
		}
	}
}

// kill stops the process without a drain and waits for it.
func (s *server) kill() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // the process may exit on its own in between; Wait settles it
	<-s.done
}

// stop drains the server with SIGTERM, waits for it to exit and returns
// the drain time and the SLO report it printed.
func (s *server) stop() (time.Duration, []byte, error) {
	s.http.CloseIdleConnections()
	t0 := now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, nil, err
	}
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.kill()
		return 0, nil, fmt.Errorf("server did not drain within 60s")
	}
	d := since(t0)
	if s.exitErr != nil {
		return d, nil, fmt.Errorf("server exit: %v: %s", s.exitErr, s.stderr.String())
	}
	return d, s.stdout.Bytes(), nil
}

// call sends one request and returns the body of a 200 response.
func (s *server) call(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func (s *server) createSession(tenant string) (int64, error) {
	data, err := s.call("POST", "/v1/session", []byte(`{"tenant":"`+tenant+`"}`))
	if err != nil {
		return 0, err
	}
	var ref struct{ Session int64 }
	if err := json.Unmarshal(data, &ref); err != nil {
		return 0, err
	}
	return ref.Session, nil
}

func (s *server) closeSession(sid int64) error {
	_, err := s.call("POST", "/v1/close", []byte(fmt.Sprintf(`{"session":%d}`, sid)))
	return err
}

// slo fetches the SLO_report/v1 document.
func (s *server) slo() (serve.SLOReport, error) {
	data, err := s.call("GET", "/v1/slo", nil)
	if err != nil {
		return serve.SLOReport{}, err
	}
	return parseSLO(data)
}

// parseSLO validates and decodes an SLO_report/v1 document.
func parseSLO(data []byte) (serve.SLOReport, error) {
	var rep serve.SLOReport
	if err := serve.ValidateSLOReport(data); err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(data, &rep)
}

// heapLive is the server's HeapAlloc after a forced collection, in bytes.
func (s *server) heapLive() (float64, error) {
	data, err := s.call("GET", "/debug/pprof/heap?debug=1&gc=1", nil)
	if err != nil {
		return 0, err
	}
	return parseHeapAlloc(data)
}

func parseHeapAlloc(profile []byte) (float64, error) {
	for _, line := range strings.Split(string(profile), "\n") {
		if v, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("no HeapAlloc line in the heap profile")
}

// cpuTime is the CPU time the server has used so far: the sum over its
// threads of the nanoseconds each has run, from
// /proc/<pid>/task/<tid>/schedstat. Like the benchmark's own cpuTime it
// leaves out time the host did not run the process. cmd/serve locks no
// goroutine to a thread, so its threads do not exit and no time is lost
// with them.
func (s *server) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			return 0, err
		}
		ns, err := parseSchedstat(data)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// parseSchedstat reads the run time, the first of schedstat's fields.
func parseSchedstat(data []byte) (time.Duration, error) {
	f := strings.Fields(string(data))
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat %q: want 3 fields", data)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns), err
}

// tally is the accounting of a set of run requests, kept on the client
// side and compared with the server's SLO report.
type tally struct {
	Offered, Delivered, Dropped, Shed int64
	Hops, LatencySum                  int64
	Nacks, Repairs, Events            int64
}

func (t *tally) add(o tally) {
	t.Offered += o.Offered
	t.Delivered += o.Delivered
	t.Dropped += o.Dropped
	t.Shed += o.Shed
	t.Hops += o.Hops
	t.LatencySum += o.LatencySum
	t.Nacks += o.Nacks
	t.Repairs += o.Repairs
	t.Events += o.Events
}

// checkOutcome checks one run response against the accounting identity
// and returns its tally.
func checkOutcome(out serve.Outcome, offered int) (tally, error) {
	h := out.Heal
	t := tally{
		Offered: int64(offered), Delivered: int64(h.Delivered), Dropped: int64(h.Dropped),
		Shed: int64(h.Shed + out.Shed), Hops: int64(h.TotalHops),
		Nacks: int64(h.Nacks), Repairs: int64(h.Repairs), Events: int64(h.EventsCommitted),
	}
	for _, p := range h.Packets {
		if p.Delivered >= 0 {
			t.LatencySum += int64(p.Delivered - p.Release)
		}
	}
	switch {
	case out.Status != serve.StatusOK && out.Status != serve.StatusShed:
		return t, fmt.Errorf("outcome status %q", out.Status)
	case t.Delivered+t.Dropped+t.Shed != t.Offered:
		return t, fmt.Errorf("outcome delivered %d + dropped %d + shed %d != offered %d",
			t.Delivered, t.Dropped, t.Shed, t.Offered)
	}
	return t, nil
}

// checkSLO checks the server's report against the client-side sums.
func checkSLO(rep serve.SLOReport, want tally) error {
	got := rep.Total
	if got.Offered != want.Offered || got.Delivered != want.Delivered ||
		got.Dropped != want.Dropped || got.Shed != want.Shed {
		return fmt.Errorf("SLO totals offered/delivered/dropped/shed %d/%d/%d/%d != client sums %d/%d/%d/%d",
			got.Offered, got.Delivered, got.Dropped, got.Shed, want.Offered, want.Delivered, want.Dropped, want.Shed)
	}
	var nacks, repairs, events int64
	for _, t := range rep.Tenants {
		nacks += t.HealNacks
		repairs += t.HealRepairs
		events += t.HealEvents
	}
	if nacks != want.Nacks || repairs != want.Repairs || events != want.Events {
		return fmt.Errorf("SLO heal nacks/repairs/events %d/%d/%d != client sums %d/%d/%d",
			nacks, repairs, events, want.Nacks, want.Repairs, want.Events)
	}
	return nil
}

// httpClient is one closed-loop client connection and what it measured.
type httpClient struct {
	id       int
	srv      *server
	sessions []int64
	bodies   [][]byte
	tr       *tracer
	churnSID int64 // -1: none open

	warm, timed      tally
	warmHeal         []simnet.HealResult // warm-up results, for the reference check
	lat, submit, ovh []float64           // timed: client ms, server-reported us, client minus server us
	start            time.Time           // of the timed phase
	doneAt, doneDel  []float64           // timed: completion second since start, packets delivered
	creates, closes  []float64           // us
	respBytes        int64
	wall             [2]time.Duration // timed requests: untraced, traced
	wallN            [2]int
	heapReq, heapMB  []float64 // traced: server heap samples (kreq, MB)
	heapAtMB         float64   // server heap at serveHeapAt requests, if this client reached it
	attempted        int
	failed           int
	failures         []string // the first few
}

func (c *httpClient) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// churn closes the churn session, if any, and opens a new one.
func (c *httpClient) churn(req int64, tr *tracer) {
	if c.churnSID >= 0 {
		sp := tr.begin("cmdserve.POST /v1/close", "cmdserve", -1, req)
		t0 := now()
		err := c.srv.closeSession(c.churnSID)
		c.closes = append(c.closes, float64(since(t0))/1e3)
		tr.end(sp)
		c.attempted++
		if err != nil {
			c.fail("close churn session %d: %v", c.churnSID, err)
		}
	}
	sp := tr.begin("cmdserve.POST /v1/session", "cmdserve", -1, req)
	t0 := now()
	sid, err := c.srv.createSession("churn")
	c.creates = append(c.creates, float64(since(t0))/1e3)
	tr.end(sp)
	c.attempted++
	if err != nil {
		c.fail("create churn session: %v", err)
		sid = -1
	}
	c.churnSID = sid
}

// request sends the client's k-th run request. warm requests keep their
// result for the reference check; timed ones are measured.
func (c *httpClient) request(k int, warm, traced bool) {
	var tr *tracer
	if traced {
		tr = c.tr
	}
	req := int64(c.id)<<32 | int64(k)
	if c.id == 0 && k > 0 && k%serveChurnEvery == 0 {
		c.churn(req, tr)
	}
	w0 := now()
	root := tr.begin("bench.request", "bench", -1, req)
	sp := tr.begin("cmdserve.POST /v1/run", "cmdserve", root, req)
	t0 := now()
	data, err := c.srv.call("POST", "/v1/run", c.bodies[k%len(c.bodies)])
	d := since(t0)
	tr.end(sp)
	c.attempted++
	var out serve.Outcome
	if err == nil {
		err = json.Unmarshal(data, &out)
	}
	tr.attr(sp, serverAttr, out.LatencyNS)
	var t tally
	if err == nil {
		t, err = checkOutcome(out, servePackets)
	}
	tr.end(root)
	if err != nil {
		c.fail("client %d request %d: %v", c.id, k, err)
		return
	}
	if warm {
		c.warm.add(t)
		c.warmHeal = append(c.warmHeal, out.Heal)
		return
	}
	c.timed.add(t)
	c.doneAt = append(c.doneAt, since(c.start).Seconds())
	c.doneDel = append(c.doneDel, float64(t.Delivered))
	c.lat = append(c.lat, ms(d))
	c.submit = append(c.submit, float64(out.LatencyNS)/1e3)
	c.ovh = append(c.ovh, float64(d.Nanoseconds()-out.LatencyNS)/1e3)
	c.respBytes += int64(len(data))
	i := 0
	if traced {
		i = 1
	}
	c.wall[i] += since(w0)
	c.wallN[i]++
}

// runRequestBody is the JSON of one POST /v1/run.
func runRequestBody(sid int64, seed int64) []byte {
	return []byte(fmt.Sprintf(`{"session":%d,"packets":%d,"seed":%d}`, sid, servePackets, seed))
}

// referenceCheck replays the warm-up requests on an in-process
// scheduler with the server's configuration and checks that every
// result the server returned over HTTP is identical.
func referenceCheck(g *digraph.Digraph, seed int64, sessions [][]int64, clients []*httpClient) error {
	sched, err := serve.New(g, serve.Config{ChaosSeed: seed})
	if err != nil {
		return err
	}
	if err := sched.Start(1); err != nil {
		return err
	}
	defer func() { _, _ = sched.Shutdown() }() // the reference holds no state worth draining
	for i := 0; i < serveSessions; i++ {
		sid, err := sched.CreateSession(serve.TenantConfig{Tenant: fmt.Sprintf("t%d", i%serveTenants)})
		if err != nil {
			return err
		}
		if want := sessions[i%serveClients][i/serveClients]; sid != want {
			return fmt.Errorf("reference session %d, server session %d", sid, want)
		}
	}
	for _, c := range clients {
		if len(c.warmHeal) != serveWarmup {
			return fmt.Errorf("client %d: %d warm-up results, want %d", c.id, len(c.warmHeal), serveWarmup)
		}
		for k, got := range c.warmHeal {
			var body struct{ Session, Seed int64 }
			if err := json.Unmarshal(c.bodies[k], &body); err != nil {
				return err
			}
			out, err := sched.Submit(body.Session, simnet.UniformRandom(g.N(), servePackets, body.Seed))
			if err != nil {
				return err
			}
			a, err1 := json.Marshal(got)
			b, err2 := json.Marshal(out.Heal)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("marshal: %v %v", err1, err2)
			}
			if !bytes.Equal(a, b) {
				return fmt.Errorf("client %d request %d on session %d: server result differs from the in-process reference", c.id, k, body.Session)
			}
		}
	}
	return nil
}

func runServeHTTP(e *env, r *report) error {
	origin := now()
	var tr *tracer
	if e.trace {
		tr = newTracer(origin)
		r.tracer = tr
	}
	// The graph the server serves, for the in-process reference. The
	// server builds its own network, so the in-process build metrics stay
	// 0 here: setup_s covers the server's build.
	g := debruijn.DeBruijn(serveD, serveDiam)

	// Set up setupRepeats times: start, ready, 100 sessions. setup_s is
	// the median over the set-ups of the server's CPU time from its start
	// to the 100th session: in wall time, 100 loopback round trips swing
	// with how the host schedules two processes. The last server carries
	// the load.
	var srv *server
	var setups, creates []float64
	var sessions [][]int64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if _, _, err := srv.stop(); err != nil {
				return err
			}
		}
		sp := tr.begin("bench.setup", "bench", -1, int64(-100-i))
		var err error
		srv, err = startServer(e.serveBin, e.seed)
		if err != nil {
			tr.end(sp)
			return err
		}
		sessions = make([][]int64, serveClients)
		for j := 0; j < serveSessions; j++ {
			c0 := now()
			cs := tr.begin("cmdserve.POST /v1/session", "cmdserve", sp, int64(-100-i))
			sid, err := srv.createSession(fmt.Sprintf("t%d", j%serveTenants))
			tr.end(cs)
			creates = append(creates, float64(since(c0))/1e3)
			if err != nil {
				tr.end(sp)
				srv.kill()
				return err
			}
			sessions[j%serveClients] = append(sessions[j%serveClients], sid)
		}
		cpu, err := srv.cpuTime()
		tr.end(sp)
		if err != nil {
			srv.kill()
			return err
		}
		setups = append(setups, cpu.Seconds())
	}
	defer srv.kill()
	r.e2e["setup_s"] = median(setups)
	r.samples["setup"] = setupRepeats

	clients := make([]*httpClient, serveClients)
	for c := range clients {
		cl := &httpClient{id: c, srv: srv, sessions: sessions[c], churnSID: -1}
		if e.trace {
			cl.tr = newTracer(origin)
		}
		for k := 0; k < serveBodies; k++ {
			sid := cl.sessions[k%len(cl.sessions)]
			cl.bodies = append(cl.bodies, runRequestBody(sid, e.seed*1_000_003+int64(c)<<24+int64(k)))
		}
		clients[c] = cl
	}
	drive := func(f func(c *httpClient)) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *httpClient) {
				defer wg.Done()
				f(c)
			}(c)
		}
		wg.Wait()
	}

	// Warm-up: a fixed number of requests per client, so the heal and
	// chaos counts it leaves in the SLO report repeat exactly.
	drive(func(c *httpClient) {
		for k := 0; k < serveWarmup; k++ {
			c.request(k, true, false)
		}
	})
	var warm tally
	for _, c := range clients {
		warm.add(c.warm)
	}
	r.attempted++
	rep, err := srv.slo()
	if err == nil {
		err = checkSLO(rep, warm)
	}
	r.check(err)
	var chaos int64
	for _, t := range rep.Tenants {
		chaos += t.ChaosFaults
	}
	r.exact["serve.warm.delivered"] = warm.Delivered
	r.exact["serve.warm.dropped"] = warm.Dropped
	r.exact["serve.warm.hops"] = warm.Hops
	r.exact["serve.warm.latency_sum"] = warm.LatencySum
	r.exact["serve.heal.repairs"] = warm.Repairs
	r.exact["serve.heal.nacks"] = warm.Nacks
	r.exact["serve.heal.events"] = warm.Events
	r.exact["serve.chaos_faults"] = chaos
	r.e2e["sim_latency_cycles"] = ratio(float64(warm.LatencySum), float64(warm.Delivered))
	r.attempted++
	r.check(referenceCheck(g, e.seed, sessions, clients))

	// Timed phase. A traced run alternates untraced and traced blocks of
	// 50 requests per client and also samples the server heap every
	// serveHeapEvery requests.
	var served atomic.Int64
	cpu0, err := srv.cpuTime()
	if err != nil {
		return err
	}
	ccpu0 := cpuTime()
	start := now()
	for _, c := range clients {
		c.start = start
	}
	limit := time.Duration(e.seconds * float64(time.Second))
	drive(func(c *httpClient) {
		for k := serveWarmup; since(start) < limit || served.Load() < serveHeapAt; k++ {
			c.request(k, false, e.trace && (k/serveChurnEvery)%2 == 1)
			n := served.Add(1)
			if n != serveHeapAt && !(e.trace && n%serveHeapEvery == 0) {
				continue
			}
			mb, err := srv.heapLive()
			if err != nil {
				c.fail("heap sample: %v", err)
				continue
			}
			if n == serveHeapAt {
				c.heapAtMB = mb / 1e6
			}
			if e.trace && n%serveHeapEvery == 0 {
				c.heapReq = append(c.heapReq, float64(n)/1e3)
				c.heapMB = append(c.heapMB, mb/1e6)
			}
		}
	})
	elapsed := since(start)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return err
	}
	ccpu1 := cpuTime()

	all := warm
	var timed tally
	var lat, submit, ovh, closes, heapReq, heapMB, doneAt, doneDel []float64
	var respBytes int64
	var wall [2]time.Duration
	var wallN [2]int
	for _, c := range clients {
		all.add(c.timed)
		timed.add(c.timed)
		lat = append(lat, c.lat...)
		doneAt = append(doneAt, c.doneAt...)
		doneDel = append(doneDel, c.doneDel...)
		submit = append(submit, c.submit...)
		ovh = append(ovh, c.ovh...)
		creates = append(creates, c.creates...)
		closes = append(closes, c.closes...)
		heapReq = append(heapReq, c.heapReq...)
		heapMB = append(heapMB, c.heapMB...)
		respBytes += c.respBytes
		for i := range wall {
			wall[i] += c.wall[i]
			wallN[i] += c.wallN[i]
		}
		r.attempted += c.attempted
		r.failed += c.failed
		r.failures = append(r.failures, c.failures...)
		tr.merge(c.tr)
	}

	r.attempted++
	rep, err = srv.slo()
	if err == nil {
		err = checkSLO(rep, all)
	}
	r.check(err)
	// heap_live_mb is read after a fixed number of requests: session
	// state grows with the work served, so a reading at the end of a
	// timed phase would follow the host's speed.
	heapAt := 0.0
	for _, c := range clients {
		heapAt = math.Max(heapAt, c.heapAtMB)
	}
	r.attempted++
	if heapAt == 0 {
		r.fail("no server heap reading at %d timed requests", serveHeapAt)
	}
	drain, final, err := srv.stop()
	r.attempted++
	if err == nil {
		rep, err = parseSLO(final)
	}
	if err == nil {
		err = checkSLO(rep, all)
	}
	r.check(err)

	reqs := float64(len(lat))
	r.samples["creates"] = len(creates)
	r.samples["closes"] = len(closes)
	rates := windowRates(doneAt, doneDel, serveWindow, elapsed.Seconds())
	r.samples["windows"] = len(rates)
	serverCPU := (cpu1 - cpu0).Seconds()
	r.timedPhase(elapsed, ccpu1-ccpu0)
	r.phase["server_cpu_s"] = serverCPU
	r.e2e["pkts_per_cpu_s"] = ratio(float64(timed.Delivered), serverCPU)
	r.layer["bench.pkts_per_wall_s"] = median(rates)
	r.latency(quantile(lat, 0.5), lat)
	r.e2e["delivered_frac"] = ratio(float64(timed.Delivered), float64(timed.Offered))
	r.e2e["heap_live_mb"] = heapAt

	if e.trace {
		r.layer["sim.hops_per_pkt"] = ratio(float64(warm.Hops), float64(warm.Delivered))
		r.layer["serve.submit.p50_us"] = quantile(submit, 0.5)
		r.layer["serve.submit.p99_us"] = quantile(submit, 0.99)
		r.layer["serve.heal.repairs"] = float64(warm.Repairs)
		r.layer["serve.heal.events"] = float64(warm.Events)
		r.layer["serve.heal.nacks"] = float64(warm.Nacks)
		r.layer["serve.chaos_faults"] = float64(chaos)
		r.layer["serve.heap_slope_kb_per_kreq"] = slope(heapReq, heapMB) * 1e3
		r.layer["serve.drain_ms"] = ms(drain)
		r.layer["cmdserve.overhead.p50_us"] = quantile(ovh, 0.5)
		r.layer["cmdserve.create.p50_us"] = quantile(creates, 0.5)
		r.layer["cmdserve.close.p50_us"] = quantile(closes, 0.5)
		r.layer["cmdserve.resp_bytes"] = ratio(float64(respBytes), reqs)
		r.layer["cmdserve.server_cpu_us_per_req"] = ratio(float64(cpu1-cpu0)/1e3, reqs)
		r.layer["bench.client_cpu_us_per_req"] = ratio(float64(ccpu1-ccpu0)/1e3, reqs)
		r.layer["bench.trace_overhead_pct"] = traceOverhead(wall, wallN)
		r.samples["heap_samples"] = len(heapMB)
	}
	return nil
}
