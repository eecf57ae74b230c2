package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fingers"
	"fingers/internal/journal"
	"fingers/internal/service"
	"fingers/internal/telemetry"
)

// serveClients is the number of closed-loop clients, each with one
// connection: a client sends its next job only after the previous one's
// terminal record arrived.
const serveClients = 2

// serveClass is one (graph, pattern) kind of job and how many of a
// pass's jobs it takes.
type serveClass struct {
	graph, pattern string
	perPass        int
}

// The job mix: of every pass's 20 jobs, 10 are Mi/tc, 6 As/tc and 4
// Mi/tt. Within a class, successive jobs take the nine architecture × PE
// combinations in turn, from a seeded starting point, and each pass runs
// in a seeded order. A fixed mix per pass keeps the work of every pass
// alike, so pass times vary with the code and the host, not with draws.
var (
	serveMix = []serveClass{
		{"Mi", "tc", 10},
		{"As", "tc", 6},
		{"Mi", "tt", 4},
	}
	serveArchs  = []string{"fingers", "flexminer", "sisa"}
	servePEs    = []int{1, 4, 8}
	serveGraphs = []string{"As", "Mi"}
)

// serveJob is one job to submit. graph is its class's graph, which the
// spec names differently in the golden pass.
type serveJob struct {
	spec  fingers.JobSpec
	graph string
}

// serveKey names a job class in golden.json: graph/pattern/arch/PEs.
func serveKey(spec fingers.JobSpec, graph string) string {
	return graph + "/" + spec.Pattern + "/" + spec.Arch + "/" + strconv.Itoa(spec.PEs)
}

// serveSpecs lists every job class of the mix.
func serveSpecs() []fingers.JobSpec {
	var out []fingers.JobSpec
	for _, c := range serveMix {
		for _, a := range serveArchs {
			for _, pes := range servePEs {
				out = append(out, fingers.JobSpec{Arch: a, Graph: c.graph, Pattern: c.pattern, PEs: pes})
			}
		}
	}
	return out
}

// nextPass returns the jobs of the next pass in a seeded order.
func (r *serveRunner) nextPass() []serveJob {
	var jobs []serveJob
	for i, c := range serveMix {
		for k := 0; k < c.perPass; k++ {
			n := r.turn[i]
			r.turn[i]++
			spec := fingers.JobSpec{
				Arch:    serveArchs[n%len(serveArchs)],
				Graph:   c.graph,
				Pattern: c.pattern,
				PEs:     servePEs[n/len(serveArchs)%len(servePEs)],
			}
			jobs = append(jobs, serveJob{spec, c.graph})
		}
	}
	r.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// serveEnv is one in-process daemon: the registry, a manager journaling
// to a fresh directory, the HTTP server, and its clients.
type serveEnv struct {
	reg     *service.Registry
	mgr     *service.Manager
	wal     *journal.Journal
	dir     string
	srv     *httptest.Server
	clients []*serveClient
	jobs    atomic.Int64 // jobs submitted, for the journal's bytes per job
}

// serveClient is one closed-loop caller with its own connection.
type serveClient struct {
	id   string
	http *http.Client
}

// close stops the daemon and removes its journal.
func (e *serveEnv) close() {
	if e == nil {
		return
	}
	if e.srv != nil {
		e.srv.Close()
	}
	for _, cl := range e.clients {
		cl.http.CloseIdleConnections()
	}
	if e.mgr != nil {
		e.mgr.Drain(0)
	}
	if e.wal != nil {
		e.wal.Close()
	}
	os.RemoveAll(e.dir)
}

// jobSample is one finished job as its client saw it.
type jobSample struct {
	key, countKey string
	rec           telemetry.RunRecord
	// sent, acked, submitted, started, finished and received bound the
	// stages: POST sent, 202 received, admission, run start, run end,
	// terminal record received.
	sent, acked, submitted, started, finished, received time.Time
	ok                                                  bool
}

// serveRunner runs the serve workload.
type serveRunner struct {
	cfg    config
	chk    *checker
	golden *checker
	env    *serveEnv
	// rng orders each pass and turn holds each class's next combination;
	// set-up seeds both.
	rng  *rand.Rand
	turn []int
	// rejected counts submissions answered with anything but 202.
	rejected atomic.Int64
}

func newServeRunner(cfg config) *serveRunner {
	return &serveRunner{cfg: cfg, chk: newChecker(cfg.log)}
}

func (r *serveRunner) setup(tr *tracer) (map[string]float64, error) {
	env := &serveEnv{reg: service.NewRegistry()}
	for _, name := range serveGraphs {
		name := name
		env.reg.Add(name, func() (*fingers.Graph, error) { return genGraph(name, r.cfg.seed, r.cfg.scale) })
	}
	t0 := time.Now()
	if err := env.reg.Preload(serveGraphs...); err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.span("service.registry_build", 0, t0, t1, nil)
	if err := os.MkdirAll(r.cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.cfg.work, "journal-")
	if err != nil {
		return nil, err
	}
	env.dir = dir
	r.env = env
	if env.wal, err = journal.Open(dir, journal.Options{}); err != nil {
		return nil, err
	}
	// The daemon's defaults: 2 workers, a 16-deep queue, 3 attempts.
	env.mgr = service.NewManager(env.reg, service.Config{
		Concurrency: 2,
		QueueDepth:  16,
		Journal:     env.wal,
		Meta:        telemetry.Meta{Source: "fingersd", HostCores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)},
	})
	env.srv = httptest.NewServer(service.NewServer(env.mgr, 0).Handler())
	for i := 0; i < serveClients; i++ {
		env.clients = append(env.clients, &serveClient{
			id:   "bench-" + strconv.Itoa(i),
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		})
	}
	r.rng = rand.New(rand.NewSource(r.cfg.seed))
	r.turn = nil
	for range serveMix {
		r.turn = append(r.turn, r.rng.Intn(len(serveArchs)*len(servePEs)))
	}
	// Warm-up: one pass.
	t2 := time.Now()
	r.drive(tr, r.nextPass())
	tr.span("warmup", 0, t2, time.Now(), nil)
	return map[string]float64{"service.registry_build_ms": t1.Sub(t0).Seconds() * 1e3}, nil
}

// drive runs the jobs with every client in a closed loop, each taking
// the next job not yet started, and returns them in completion order.
func (r *serveRunner) drive(tr *tracer, jobs []serveJob) []jobSample {
	var (
		mu      sync.Mutex
		started int
		done    []jobSample
		wg      sync.WaitGroup
	)
	for i, cl := range r.env.clients {
		wg.Add(1)
		go func(i int, cl *serveClient) {
			defer wg.Done()
			for {
				mu.Lock()
				if started == len(jobs) {
					mu.Unlock()
					return
				}
				j := jobs[started]
				started++
				mu.Unlock()
				s := r.job(i, cl, j.spec, j.graph, tr)
				mu.Lock()
				done = append(done, s)
				mu.Unlock()
			}
		}(i, cl)
	}
	wg.Wait()
	return done
}

// job submits one spec as client i, streams it to its terminal record,
// and checks the outcome. graph is the class's graph name, which the
// spec's own names under a different registry key in the golden pass.
func (r *serveRunner) job(i int, cl *serveClient, spec fingers.JobSpec, graph string, tr *tracer) jobSample {
	s := jobSample{key: serveKey(spec, graph), countKey: graph + "/" + spec.Pattern}
	chk := r.chk
	if spec.Graph != graph {
		chk = r.golden
	}
	base := r.env.srv.URL
	body, err := json.Marshal(spec)
	if err != nil {
		chk.fail(s.key, err)
		return s
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		chk.fail(s.key, err)
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", cl.id)
	s.sent = time.Now()
	resp, err := cl.http.Do(req)
	if err != nil {
		chk.fail(s.key, err)
		return s
	}
	var st service.JobStatus
	derr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	s.acked = time.Now()
	r.env.jobs.Add(1)
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		r.rejected.Add(1)
		chk.fail(s.key, fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, derr))
		return s
	}
	resp, err = cl.http.Get(base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		chk.fail(s.key, err)
		return s
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var rec telemetry.RunRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if rec.JobState != "" {
			s.rec, s.received = rec, time.Now()
		}
	}
	err = sc.Err()
	resp.Body.Close()
	switch {
	case err != nil:
	case s.rec.JobState != string(service.StateDone) || s.rec.Partial:
		err = fmt.Errorf("job %s ended %q (partial %v)", st.ID, s.rec.JobState, s.rec.Partial)
	default:
		s.submitted, err = time.Parse(time.RFC3339Nano, st.SubmittedAt)
		if err == nil {
			s.started, err = time.Parse(time.RFC3339Nano, s.rec.StartedAt)
		}
	}
	if err != nil {
		chk.fail(s.key, err)
		return s
	}
	s.finished = s.started.Add(time.Duration(s.rec.WallNS))
	s.ok = true
	chk.observe(s.key, s.countKey, s.rec.Count, int64(s.rec.Cycles), true)
	tid := i + 1
	args := map[string]any{"id": st.ID, "parent": "job"}
	tr.span("job", tid, s.sent, s.received, map[string]any{"id": st.ID, "class": s.key})
	tr.span("service.submit", tid, s.sent, s.acked, args)
	tr.span("service.queue", tid, s.submitted, s.started, args)
	tr.span("service.run", tid, s.started, s.finished, args)
	tr.span("service.stream_tail", tid, s.finished, s.received, args)
	return s
}

func (r *serveRunner) measure(d time.Duration, tr *tracer) (*phase, error) {
	deadline := time.Now().Add(d)
	p := &phase{lat: map[string][]float64{}, layer: map[string]float64{}}
	var jobs []jobSample
	for len(p.passes) == 0 || time.Now().Before(deadline) {
		runtime.GC()
		p.cal = append(p.cal, calibrate())
		t0 := time.Now()
		jobs = append(jobs, r.drive(tr, r.nextPass())...)
		t1 := time.Now()
		tr.span("pass", 0, t0, t1, map[string]any{"pass": len(p.passes)})
		p.passes = append(p.passes, t1.Sub(t0).Seconds())
	}
	p.work = float64(len(p.passes))
	p.ops = len(jobs)
	var submit, queue, run, tail []float64
	var sim simTotals
	retried := 0
	for _, s := range jobs {
		if !s.ok {
			continue
		}
		ms := func(a, b time.Time) float64 { return b.Sub(a).Seconds() * 1e3 }
		p.lat[s.key] = append(p.lat[s.key], ms(s.sent, s.received))
		submit = append(submit, ms(s.sent, s.acked))
		queue = append(queue, ms(s.submitted, s.started))
		run = append(run, ms(s.started, s.finished))
		tail = append(tail, ms(s.finished, s.received))
		if s.rec.Attempt > 1 {
			retried++
		}
		res := fingers.SimResult{Cycles: s.rec.Cycles, Tasks: s.rec.Tasks, Breakdown: s.rec.Breakdown}
		res.SharedCache.LineAccesses, res.SharedCache.LineMisses = s.rec.SharedAccesses, s.rec.SharedMisses
		res.DRAM.BytesMoved = s.rec.DRAMBytes
		sim.add(s.rec.Arch, time.Duration(s.rec.WallNS), res)
	}
	sim.layers(p.work, p.layer)
	p.layer["service.submit_ms_p50"] = percentile(submit, 50)
	p.layer["service.submit_ms_p90"] = percentile(submit, 90)
	p.layer["service.queue_ms_p50"] = percentile(queue, 50)
	p.layer["service.queue_ms_p90"] = percentile(queue, 90)
	p.layer["service.run_ms_p50"] = percentile(run, 50)
	p.layer["service.run_ms_p90"] = percentile(run, 90)
	p.layer["service.stream_tail_ms_p50"] = percentile(tail, 50)
	p.layer["service.rejected"] = float64(r.rejected.Load())
	p.layer["service.retried"] = float64(retried)
	if size, err := dirSize(r.env.dir); err == nil {
		p.layer["journal.bytes_per_job"] = ratio(float64(size), float64(r.env.jobs.Load()))
	}
	return p, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

func (r *serveRunner) verify() error {
	if r.cfg.seed == defaultSeed && r.cfg.scale == 1 {
		g, err := loadGolden()
		if err != nil {
			return err
		}
		r.chk.pin(g.Workloads["serve"])
		return nil
	}
	// Another seed: every architecture already had to report the same
	// count for a graph/pattern pair; the software miner must agree.
	for _, c := range serveMix {
		e, err := r.env.reg.Get(c.graph)
		if err != nil {
			return err
		}
		pl, err := fingers.JobSpec{Arch: "fingers", Graph: c.graph, Pattern: c.pattern}.Plans()
		if err != nil {
			return err
		}
		n, err := fingers.CountCtx(context.Background(), e.Graph, pl[0], mineWorkers)
		if err != nil {
			return err
		}
		r.chk.expect(c.graph+"/"+c.pattern, n, "fingers.CountCtx")
	}
	if r.cfg.scale != 1 {
		return nil
	}
	// And every job class run on the default-seed graphs, registered
	// under their own names, must reproduce golden.json.
	for _, name := range serveGraphs {
		name := name
		r.env.reg.Add(name+"@golden", func() (*fingers.Graph, error) { return genGraph(name, defaultSeed, 1) })
	}
	r.golden = newChecker(r.cfg.log)
	var jobs []serveJob
	for _, spec := range serveSpecs() {
		graph := spec.Graph
		spec.Graph += "@golden"
		jobs = append(jobs, serveJob{spec, graph})
	}
	r.drive(nil, jobs)
	g, err := loadGolden()
	if err != nil {
		return err
	}
	r.golden.pin(g.Workloads["serve"])
	return nil
}

func (r *serveRunner) footprint() map[string]float64 {
	out := map[string]float64{}
	for _, name := range serveGraphs {
		e, err := r.env.reg.Get(name)
		if err != nil {
			continue
		}
		out["graph.dense_rows"] += float64(e.Info.DenseRows)
		out["graph.bitmap_rows"] += float64(e.Info.BitmapRows)
		out["graph.hybrid_mb"] += mb(e.Info.HybridBytes)
	}
	return out
}

func (r *serveRunner) totals() (int, int) {
	a, f := r.chk.totals()
	if r.golden != nil {
		ga, gf := r.golden.totals()
		a, f = a+ga, f+gf
	}
	return a, f
}

func (r *serveRunner) release() {
	r.env.close()
	r.env = nil
}
