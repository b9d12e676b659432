package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bnb"
	"repro/internal/checkpoint"
	"repro/internal/cycles"
	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/rat"
	"repro/internal/sched"
	"repro/internal/service"
)

// The search-jobs workload has one client submit a fixed list of mapping
// searches through POST /v1/jobs to one node that checkpoints every job,
// poll each job to a terminal state and fetch its result before submitting
// the next. The list holds a walker-heavy exact search (1.3M tree nodes), a
// leaf-heavy exact search on the float-screen backend (5k leaves), and
// "best" heuristic searches whose candidates repeat, so the bnb walker and
// the engine memo do most of their work here and almost none elsewhere.

// searchProblem is one job of the list.
type searchProblem struct {
	name    string
	exact   bool
	pipe    *pipeline.Pipeline
	plat    *platform.Platform
	cm      model.CommModel
	backend cycles.Backend
	seed    int64 // rng seed of a heuristic search
	body    []byte
}

// exactProblem draws a problem the way cmd/mapsearch does for -seed.
func exactProblem(name string, stages, procs int, seed int64, cm model.CommModel, backend cycles.Backend) searchProblem {
	rng := rand.New(rand.NewSource(seed))
	pipe := pipeline.Random(rng, stages, 50, 500)
	plat := platform.Random(rng, procs, 5, 25, 20, 200)
	return searchProblem{name: name, exact: true, pipe: pipe, plat: plat, cm: cm, backend: backend}
}

const searchHeuristics = 10

// checkpointInterval is cmd/serve's default: per-root progress is batched,
// lifecycle boundaries are written through.
const checkpointInterval = 2 * time.Second

// searchProblemSeed draws the heuristic problems. The problems are fixed
// like the exact ones, and they are overlap problems: a strict candidate's
// cost follows the lcm of its replication counts, so the cost of a strict
// heuristic search swings several-fold with its rng seed and every timing
// would be seed-bound. The strict model is searched by the leaf-heavy job.
const searchProblemSeed = 2009

// genSearchProblems returns the job list for a seed. The problems are fixed
// (the exact searches' tree sizes vary by orders of magnitude across problem
// seeds); the heuristic searches' rng seeds and the submission order come
// from the seed.
func genSearchProblems(seed int64) ([]searchProblem, error) {
	ps := []searchProblem{
		exactProblem("walker-4x10", 4, 10, 2, model.Overlap, cycles.BackendAuto),
		exactProblem("leaves-3x8", 3, 8, 2, model.Strict, cycles.BackendFloatScreen),
	}
	prng := rand.New(rand.NewSource(searchProblemSeed))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < searchHeuristics; i++ {
		ps = append(ps, searchProblem{
			name: fmt.Sprintf("best-%d", i),
			pipe: pipeline.Random(prng, 3+i%2, 50, 500),
			plat: platform.Random(prng, 6+i%3, 5, 25, 20, 200),
			cm:   model.Overlap,
			seed: rng.Int63(),
		})
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	for i := range ps {
		p := &ps[i]
		req := service.SearchRequest{Pipeline: p.pipe, Platform: p.plat, Model: p.cm.String(), Algo: "best", Seed: p.seed}
		if p.exact {
			req.Algo, req.Backend = "bnb", p.backend.String()
		}
		body, err := json.Marshal(service.JobSubmitRequest{Kind: "search", Search: &req})
		if err != nil {
			return nil, err
		}
		p.body = body
	}
	return ps, nil
}

// exactRef is an in-process exact search's answer.
type exactRef struct {
	period string
	stats  bnb.Stats
	dur    time.Duration
}

// inProcessExact runs the search the job runs, in process, with walkers
// concurrent walkers (0 = the engine's pool size, as the job does).
func inProcessExact(p searchProblem, workers, walkers int) (exactRef, error) {
	eng := engine.New(engine.Options{Workers: workers, Backend: p.backend})
	start := time.Now()
	x, err := sched.BranchAndBoundEngineOpts(context.Background(), eng, p.pipe, p.plat, p.cm, bnb.Options{Workers: walkers})
	d := time.Since(start)
	if err != nil {
		return exactRef{}, err
	}
	if !x.Proven {
		return exactRef{}, fmt.Errorf("%s: in-process search not proven", p.name)
	}
	return exactRef{period: x.Period.String(), stats: x.Stats, dur: d}, nil
}

// jobRun is one job's client-side record.
type jobRun struct {
	submit, result, total time.Duration
	polls                 int
	state                 string
	progress              service.JobProgress
	body                  []byte
	err                   error
}

// pollMax is the longest wait between two polls of one job.
const pollMax = 16 * time.Millisecond

// runJob submits one job, polls it to a terminal state and fetches the result.
func runJob(c *http.Client, base string, body []byte) jobRun {
	var jr jobRun
	start := time.Now()
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		jr.err = err
		return jr
	}
	var job service.Job
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	jr.submit = time.Since(start)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		jr.err = fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
		return jr
	}
	// Polls back off from 1 ms to pollMax, so a long job costs a few dozen
	// polls and not one every 2 ms of however long the host keeps it.
	for wait := time.Millisecond; job.State != "done" && job.State != "failed" && job.State != "canceled"; {
		time.Sleep(wait)
		if wait < pollMax {
			wait *= 2
		}
		jr.polls++
		if err := getJSON(c, base+"/v1/jobs/"+job.ID, &job); err != nil {
			jr.err = err
			return jr
		}
	}
	jr.state = job.State
	if job.Progress != nil {
		jr.progress = *job.Progress
	}
	t := time.Now()
	st, out, err := getBody(c, base+"/v1/jobs/"+job.ID+"/result")
	jr.result = time.Since(t)
	jr.total = time.Since(start)
	if err != nil || st != http.StatusOK {
		jr.err = fmt.Errorf("result: status %d: %v", st, err)
	}
	jr.body = out
	return jr
}

func getBody(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// warmJob is the set-up job every pass runs before its timed list: a greedy
// search that pages in the job, search and checkpoint paths.
func warmJob() ([]byte, error) {
	rng := rand.New(rand.NewSource(1))
	req := service.SearchRequest{
		Pipeline: pipeline.Random(rng, 3, 50, 500),
		Platform: platform.Random(rng, 6, 5, 25, 20, 200),
		Model:    model.Overlap.String(),
		Algo:     "greedy",
	}
	return json.Marshal(service.JobSubmitRequest{Kind: "search", Search: &req})
}

func runSearch(b *bench) error {
	ps, err := genSearchProblems(b.seed)
	if err != nil {
		return err
	}
	warm, err := warmJob()
	if err != nil {
		return err
	}
	// The reference answers, outside any timed window: each exact search in
	// process with the job's own parallelism.
	refs := map[string]exactRef{}
	for _, p := range ps {
		if p.exact {
			if refs[p.name], err = inProcessExact(p, b.workers, 0); err != nil {
				return err
			}
		}
	}
	ckptRoot := filepath.Join(b.scratch, "checkpoints")
	defer os.RemoveAll(ckptRoot)

	var times passTimes
	jobLat := make([]latencies, len(ps))
	var allocs uint64
	var jobs int64
	var submits, results latencies
	var polls int64
	heurBodies := map[string][]byte{}
	var lastDir string
	err = passLoop(b.budget, 3, func(pass int) (time.Duration, error) {
		dir := filepath.Join(ckptRoot, fmt.Sprintf("pass-%d", pass))
		times.start()
		c0 := cpuTime()
		node := service.NewServer(service.Options{Workers: b.workers, CheckpointDir: dir, CheckpointInterval: checkpointInterval})
		if err := node.CheckpointErr(); err != nil {
			return 0, err
		}
		hs, err := startHTTP(node.Handler())
		if err != nil {
			return 0, err
		}
		defer hs.stop()
		client := newClient(1)
		defer client.CloseIdleConnections()
		if jr := runJob(client, hs.url, warm); jr.err != nil || jr.state != "done" {
			return 0, fmt.Errorf("set-up job: state %q: %v", jr.state, jr.err)
		}
		setup := cpuTime() - c0

		runs := make([]jobRun, len(ps))
		settle()
		m0 := mallocs()
		c1 := cpuTime()
		start := time.Now()
		for i, p := range ps {
			runs[i] = runJob(client, hs.url, p.body)
		}
		wall, work := time.Since(start), cpuTime()-c1
		allocs += mallocs() - m0
		times.add(setup, work, wall)
		jobs += int64(len(ps))
		for i, p := range ps {
			r := runs[i]
			jobLat[i].add(r.total)
			submits.add(r.submit)
			results.add(r.result)
			polls += int64(r.polls)
			checkJob(b, p, r, refs, heurBodies)
		}
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastDir = dir
		return wall, nil
	})
	if err != nil {
		return err
	}
	b.setCommon(times, int64(len(ps)), allocs, jobs)
	b.setLatency([]latencies{opMedians(jobLat)})
	if !b.trace {
		return nil
	}
	b.set("jobs.submit_ms", mean(submits), "ms")
	b.set("jobs.result_ms", mean(results), "ms")
	b.set("jobs.polls_per_job", float64(polls)/float64(jobs), "count")
	// Job overhead: each exact job's median latency minus the median of
	// three runs of the same search in process, now that the process is as
	// warm as the passes were.
	var overhead latencies
	for i, p := range ps {
		if !p.exact {
			continue
		}
		var inProc []float64
		for k := 0; k < 3; k++ {
			warm, err := inProcessExact(p, b.workers, 0)
			if err != nil {
				return err
			}
			inProc = append(inProc, ms(warm.dur))
		}
		overhead = append(overhead, median(jobLat[i])-median(inProc))
	}
	b.set("jobs.overhead_ms", mean(overhead), "ms")
	if err := resaveCheckpoints(b, lastDir, filepath.Join(ckptRoot, "resave")); err != nil {
		return err
	}
	return replaySearch(b, ps, refs)
}

// checkJob verifies one job's answer: exact searches must be proven and
// equal the in-process search in period and every tree count; heuristic
// answers must carry their mapping's true period and repeat byte for byte.
func checkJob(b *bench, p searchProblem, r jobRun, refs map[string]exactRef, heur map[string][]byte) {
	kind := "heuristic"
	if p.exact {
		kind = "exact"
	}
	c := b.class(kind)
	c.attempted++
	problem := ""
	var resp service.SearchResponse
	switch {
	case r.err != nil:
		problem = r.err.Error()
	case r.state != "done":
		problem = "state " + r.state
	case json.Unmarshal(r.body, &resp) != nil:
		problem = "undecodable result"
	case p.exact:
		ref := refs[p.name]
		got := bnb.Stats{}
		if resp.Nodes != nil && resp.Pruned != nil && resp.Screened != nil && r.progress.Leaves != nil {
			got = bnb.Stats{Nodes: *resp.Nodes, Pruned: *resp.Pruned, Screened: *resp.Screened, Leaves: *r.progress.Leaves}
		}
		want := bnb.Stats{Nodes: ref.stats.Nodes, Pruned: ref.stats.Pruned, Screened: ref.stats.Screened, Leaves: ref.stats.Leaves}
		switch {
		case resp.Proven == nil || !*resp.Proven:
			problem = "not proven"
		case resp.Period != ref.period:
			problem = fmt.Sprintf("period %s, in-process %s", resp.Period, ref.period)
		case got != want:
			problem = fmt.Sprintf("tree counts %+v, in-process %+v", got, want)
		}
	default:
		if prev, ok := heur[p.name]; ok && !bytes.Equal(prev, r.body) {
			problem = "result differs from an earlier pass"
			break
		}
		heur[p.name] = r.body
		m, err := mapping.New(resp.Replicas, p.plat.NumProcs())
		if err != nil {
			problem = err.Error()
			break
		}
		period, err := sched.Evaluate(p.pipe, p.plat, m, p.cm)
		if err != nil || period.String() != resp.Period {
			problem = fmt.Sprintf("mapping's period %v differs from the answered %s (%v)", period, resp.Period, err)
		}
	}
	if problem == "" {
		c.succeeded++
		return
	}
	c.failed++
	b.fail("search job %s: %s", p.name, problem)
}

// resaveCheckpoints re-saves a pass's checkpoint records into a scratch
// checkpoint.Store, timing each save.
func resaveCheckpoints(b *bench, dir, scratch string) error {
	src, err := checkpoint.NewStore(dir)
	if err != nil {
		return err
	}
	dst, err := checkpoint.NewStore(scratch)
	if err != nil {
		return err
	}
	names, err := src.List()
	if err != nil {
		return err
	}
	var saves latencies
	var kb []float64
	for _, name := range names {
		var rec checkpoint.Record
		if err := src.Load(name, &rec); err != nil {
			return err
		}
		t := time.Now()
		if err := dst.Save(name, rec); err != nil {
			return err
		}
		saves.add(time.Since(t))
		fi, err := os.Stat(filepath.Join(scratch, name+".json"))
		if err != nil {
			return err
		}
		kb = append(kb, float64(fi.Size())/1024)
	}
	if len(names) == 0 {
		b.fail("search-jobs: the node wrote no checkpoint records")
	}
	b.set("checkpoint.save_ms", mean(saves), "ms")
	b.set("checkpoint.record_kb", mean(kb), "KB")
	return nil
}

// searchLayers are the spans whose self time the search replay sums.
var searchLayers = []string{"sched.greedy", "bnb.frontier", "bnb.walk", "sched.best"}

// replaySearch runs every problem in process through the layers the job
// runs — greedy warm start, bnb.Frontier, LocalExecutor.RunRoot per root
// (one walker), BestOfEngine — with one span per call. Exact counts must
// equal the in-process reference and the one-walker untraced search.
func replaySearch(b *bench, ps []searchProblem, refs map[string]exactRef) error {
	ctx := context.Background()
	var untraced, walk time.Duration
	var walkAllocs uint64
	var rootMax time.Duration
	var total bnb.Stats
	from := b.tracer.mark()
	var wall time.Duration
	for _, p := range ps {
		if p.exact {
			one, err := inProcessExact(p, b.workers, 1)
			if err != nil {
				return err
			}
			untraced += one.dur
			if one.stats != refs[p.name].stats || one.period != refs[p.name].period {
				b.fail("search %s: one-walker search %s %+v differs from the reference %s %+v",
					p.name, one.period, one.stats, refs[p.name].period, refs[p.name].stats)
			}
		}
		eng := engine.New(engine.Options{Workers: b.workers, Backend: p.backend})
		o := b.tracer.op()
		start := time.Now()
		root := o.begin("search", -1)
		if !p.exact {
			sp := o.begin("sched.best", root)
			_, err := sched.BestOfEngine(ctx, eng, p.pipe, p.plat, p.cm, rand.New(rand.NewSource(p.seed)))
			o.end(sp)
			o.end(root)
			o.commit()
			wall += time.Since(start)
			if err != nil {
				return err
			}
			continue
		}
		sp := o.begin("sched.greedy", root)
		g, err := sched.GreedyEngine(ctx, eng, p.pipe, p.plat, p.cm)
		o.end(sp)
		if err != nil {
			return err
		}
		warm := g.Period.String()
		sp = o.begin("bnb.frontier", root)
		roots, stats, err := bnb.Frontier(ctx, p.pipe, p.plat, warm, 0)
		o.end(sp)
		if err != nil {
			return err
		}
		exec, err := bnb.NewLocalExecutor(eng, p.pipe, p.plat, p.cm, bnb.Options{})
		if err != nil {
			return err
		}
		best := g.Period
		proven := true
		m0 := mallocs()
		for _, r := range roots {
			sp := o.begin("bnb.walk", root)
			t := time.Now()
			res, err := exec.RunRoot(ctx, r, warm)
			d := time.Since(t)
			o.end(sp)
			if err != nil {
				return err
			}
			if d > rootMax {
				rootMax = d
			}
			proven = proven && res.Complete
			stats.Nodes += res.Stats.Nodes
			stats.Leaves += res.Stats.Leaves
			stats.Pruned += res.Stats.Pruned
			stats.Infeasible += res.Stats.Infeasible
			stats.Screened += res.Stats.Screened
			if res.BestPeriod != "" {
				q, err := rat.Parse(res.BestPeriod)
				if err != nil {
					return err
				}
				if q.Less(best) {
					best = q
				}
			}
		}
		walkAllocs += mallocs() - m0
		o.end(root)
		o.commit()
		wall += time.Since(start)
		ref := refs[p.name]
		stats.Frontier = ref.stats.Frontier
		if !proven || best.String() != ref.period || stats != ref.stats {
			b.fail("search %s: traced replay %s %+v (proven %v) differs from the reference %s %+v",
				p.name, best, stats, proven, ref.period, ref.stats)
		}
		total.Nodes += stats.Nodes
		total.Leaves += stats.Leaves
		total.Pruned += stats.Pruned
		total.Screened += stats.Screened
	}
	lt := b.tracer.layers(from)
	perCall := func(name string) float64 {
		if n := lt.calls(name); n > 0 {
			return ms(lt.self(name)) / float64(n)
		}
		return 0
	}
	b.set("sched.greedy_ms", perCall("sched.greedy"), "ms")
	b.set("sched.best_ms", perCall("sched.best"), "ms")
	b.set("bnb.frontier_ms", perCall("bnb.frontier"), "ms")
	walk = lt.self("bnb.walk")
	b.set("bnb.walk_ms", ms(walk), "ms")
	b.set("bnb.root_max_ms", ms(rootMax), "ms")
	b.set("bnb.nodes", float64(total.Nodes), "count")
	b.set("bnb.leaves", float64(total.Leaves), "count")
	b.set("bnb.pruned", float64(total.Pruned), "count")
	b.set("bnb.screened", float64(total.Screened), "count")
	if walk > 0 {
		b.set("bnb.nodes_per_s", float64(total.Nodes)/walk.Seconds(), "1/s")
		b.set("bnb.leaves_per_s", float64(total.Leaves)/walk.Seconds(), "1/s")
	}
	if total.Nodes > 0 {
		b.set("bnb.allocs_per_node", float64(walkAllocs)/float64(total.Nodes), "count")
	}
	var covered time.Duration
	for _, name := range searchLayers {
		covered += lt.self(name)
	}
	b.set("trace.coverage", float64(covered)/float64(wall), "ratio")
	// Overhead compares the exact searches only: the same one-walker search
	// untraced against its traced replay.
	var tracedExact time.Duration
	for _, name := range []string{"sched.greedy", "bnb.frontier", "bnb.walk"} {
		tracedExact += lt.self(name)
	}
	if untraced > 0 {
		b.set("trace.overhead", float64(tracedExact)/float64(untraced), "ratio")
	}
	checkCoverage(b)
	return nil
}
