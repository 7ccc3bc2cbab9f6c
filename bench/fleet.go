package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// The fleet workloads drive an in-process fleet the way remote users would:
// JSON over real HTTP, closed loop. The generator below is the traffic.

// fleetTemplates are the job families' base documents, one per device kind,
// shaped like examples/run.json and examples/campaign.json.
var fleetTemplates = []string{"fleet_cnt", "fleet_chain", "fleet_gnr", "fleet_wire"}

// fleetClients is the closed loop's client count: each client sends its
// next job only after reading the previous job's result.
const fleetClients = 2

type jobClass int

const (
	classCold     jobClass = iota // a family the fleet has not seen
	classDup                      // byte-identical to an earlier job
	classAdjacent                 // an earlier family at a new, adjacent bias
)

func (c jobClass) String() string { return [...]string{"cold", "dup", "adjacent"}[c] }

// fleetJob is one generated submission.
type fleetJob struct {
	Index    int
	Class    jobClass
	Of       int // index of the earlier job a dup repeats or an adjacent job extends; -1 for cold
	Template int
	Doc      *runDoc
	Body     []byte
}

// blockClasses is the mix of every block of ten jobs: 40 % cold, 30 %
// duplicates, 30 % adjacent-bias. Stratifying by block keeps the shares
// exact for any job count and any seed.
var blockClasses = [10]jobClass{
	classCold, classCold, classCold, classCold,
	classDup, classDup, classDup,
	classAdjacent, classAdjacent, classAdjacent,
}

// generateJobs draws n jobs from the seed. Cold jobs walk the templates
// round-robin (so every seed carries the same work) and become a new family
// through a seeded thermal energy; duplicates repeat an earlier distinct
// job; adjacent jobs push an earlier family's bias one step further.
func generateJobs(templates []*runDoc, n int, seed uint64) []fleetJob {
	rng := rand.New(rand.NewSource(int64(seed)))
	jobs := make([]fleetJob, 0, n)
	var distinct []int            // indices of non-duplicate jobs
	var families []int            // index of each family's founding cold job
	lastBias := map[int]float64{} // founding index → highest bias issued
	colds := 0
	for len(jobs) < n {
		block := blockClasses
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			if len(jobs) == n {
				break
			}
			if len(families) == 0 {
				class = classCold // nothing to repeat or extend yet
			}
			j := fleetJob{Index: len(jobs), Class: class, Of: -1}
			switch class {
			case classCold:
				j.Template = colds % len(templates)
				colds++
				j.Doc = templates[j.Template].
					withKT(0.020 + 0.010*rng.Float64()).
					withBias(0.10 + 0.20*rng.Float64())
				families = append(families, j.Index)
				lastBias[j.Index] = j.Doc.bias()
			case classDup:
				j.Of = distinct[rng.Intn(len(distinct))]
				j.Template, j.Doc = jobs[j.Of].Template, jobs[j.Of].Doc
			case classAdjacent:
				j.Of = families[rng.Intn(len(families))]
				lastBias[j.Of] += 0.02
				j.Template = jobs[j.Of].Template
				j.Doc = jobs[j.Of].Doc.withBias(lastBias[j.Of])
			}
			if class != classDup {
				distinct = append(distinct, j.Index)
			}
			j.Body = j.Doc.JSON()
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// --- the HTTP client a user of the fleet would write ---

type jobStatus struct {
	ID            string   `json:"id"`
	State         string   `json:"state"`
	Source        string   `json:"source"`
	Iterations    int      `json:"iterations"`
	WarmStartBias *float64 `json:"warm_start_bias"`
	Error         string   `json:"error"`
}

type iterRecord struct {
	Iter   int   `json:"iter"`
	WallNs int64 `json:"wall_ns"`
	GFNs   int64 `json:"gf_ns"`
	SSENs  int64 `json:"sse_ns"`
	MixNs  int64 `json:"mix_ns"`
}

// sample is the record in the harness's own terms.
func (it iterRecord) sample() iterSample {
	return iterSample{Iter: it.Iter, Wall: time.Duration(it.WallNs), GF: time.Duration(it.GFNs),
		SSE: time.Duration(it.SSENs), Mix: time.Duration(it.MixNs)}
}

type resultDoc struct {
	ID          string `json:"id"`
	Iterations  int    `json:"iterations"`
	Converged   bool   `json:"converged"`
	Observables struct {
		CurrentL, CurrentR, HeatL float64
	} `json:"observables"`
}

func (d *resultDoc) outcome() *outcome {
	return &outcome{Iterations: d.Iterations, Converged: d.Converged,
		IL: d.Observables.CurrentL, IR: d.Observables.CurrentR, QL: d.Observables.HeatL}
}

type fleetClient struct {
	base string
	hc   *http.Client
}

func newFleetClient(base string) *fleetClient {
	return &fleetClient{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * fleetClients}}}
}

func (c *fleetClient) close() { c.hc.CloseIdleConnections() }

// do performs one request and returns the body of a response with the
// wanted status.
func (c *fleetClient) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (c *fleetClient) getJSON(ctx context.Context, method, path string, body []byte, want int, out any) error {
	raw, err := c.do(ctx, method, path, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// jobRecord is what one job of the mix measured.
type jobRecord struct {
	job     fleetJob
	latency time.Duration // submit → result body read
	source  string        // run | joined | cache, from the submit reply
	warm    bool          // seeded from a cached neighbour (traced runs only)
	iters   []iterRecord
	raw     []byte // the result document as served
	doc     resultDoc
	err     error
}

// runJob is one closed-loop request: submit, follow the stream to EOF, read
// the result. The spans it records are the harness's calls into the fleet.
func (c *fleetClient) runJob(ctx context.Context, tr *tracer, op int, body []byte) (rec jobRecord) {
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	t0 := time.Now()
	root := tr.begin("job", 0, op)
	defer func() {
		rec.latency = time.Since(t0)
		tr.end(root)
	}()

	var st jobStatus
	tr.call("front.submit", root, op, func() {
		rec.err = c.getJSON(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &st)
	})
	if rec.err != nil {
		return rec
	}
	rec.source = st.Source

	sid := tr.begin("front.stream", root, op)
	rec.iters, rec.err = c.stream(ctx, "/v1/jobs/"+st.ID+"/stream")
	end := time.Now()
	tr.end(sid)
	if rec.err != nil {
		return rec
	}
	if tr != nil && rec.source == "run" {
		// A run this job started: its iteration log is this job's own
		// work, ending when the stream does.
		for k := len(rec.iters) - 1; k >= 0; k-- {
			s := rec.iters[k].sample()
			addIterationSpans(tr, sid, op, end, s)
			end = end.Add(-s.Wall)
		}
	}

	tr.call("front.result", root, op, func() {
		rec.raw, rec.err = c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK)
	})
	if rec.err == nil {
		rec.err = json.Unmarshal(rec.raw, &rec.doc)
	}
	return rec
}

// stream reads an NDJSON iteration stream to EOF.
func (c *fleetClient) stream(ctx context.Context, path string) ([]iterRecord, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	var out []iterRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec iterRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// warmStarted asks the front whether a finished job was seeded from a
// cached neighbour.
func (c *fleetClient) warmStarted(ctx context.Context, id string) bool {
	var st jobStatus
	if err := c.getJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &st); err != nil {
		return false
	}
	return st.WarmStartBias != nil
}

// --- fleet_mix ---

// loadTemplates parses the job families' base documents.
func loadTemplates(quick bool) ([]*runDoc, error) {
	var out []*runDoc
	for _, name := range fleetTemplates {
		d, err := loadDoc(name, quick)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// mixRun is one pass of generated jobs through a fresh fleet.
type mixRun struct {
	records []jobRecord
	window  time.Duration
	allocMB float64
	waits   []time.Duration // worker queue waits
}

// runMix starts a fleet, pushes jobs through it from fleetClients closed-
// loop clients, and tears it down.
func runMix(ctx context.Context, tr *tracer, jobs []fleetJob, askWarm bool) *mixRun {
	fl := startFleet()
	defer fl.close()
	cl := newFleetClient(fl.URL)
	defer cl.close()

	out := &mixRun{records: make([]jobRecord, len(jobs))}
	feed := make(chan fleetJob)
	a0 := allocMB()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range feed {
				rec := cl.runJob(ctx, tr, j.Index+1, j.Body)
				rec.job = j
				if askWarm && rec.err == nil {
					rec.warm = cl.warmStarted(ctx, rec.doc.ID)
				}
				out.records[j.Index] = rec
			}
		}()
	}
	for _, j := range jobs {
		feed <- j
	}
	close(feed)
	wg.Wait()
	out.window, out.allocMB = time.Since(start), allocMB()-a0
	out.waits = fl.queueWaits()
	return out
}

// fleetSetupReps is how often a fleet workload repeats its set-up. One
// takes 50 ms, a tenth of it the warm-up job's own noise, so it can afford
// more repetitions than a solver workload's.
const fleetSetupReps = 9

// fleetSetups runs the set-up of a fleet workload fleetSetupReps times —
// generate the inputs, build a fleet, push one warm-up job through it, tear
// it down — and returns the median in seconds.
func fleetSetups(ctx context.Context, inputs func() ([]byte, error)) (float64, error) {
	var setups []float64
	for r := 0; r < fleetSetupReps; r++ {
		t0 := time.Now()
		body, err := inputs()
		if err != nil {
			return 0, err
		}
		fl := startFleet()
		cl := newFleetClient(fl.URL)
		rec := cl.runJob(ctx, nil, 0, body)
		cl.close()
		fl.close()
		if rec.err != nil {
			return 0, fmt.Errorf("warm-up job: %w", rec.err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return median(setups), nil
}

// mixSize is the job count of a run: 30 jobs per second of measurement
// (300 at the default 10 s, which these jobs fill at HEAD), in whole blocks
// of ten and never under 240. A count, not a deadline, sizes the run so
// that one seed always carries the same jobs; 70 % of them are distinct
// documents, which stays inside the front's default 256-entry cache.
func mixSize(e env) int {
	return e.size(max(240, int(math.Round(3*e.seconds))*10), 20)
}

// fleetTolFactor holds a fleet job's observables to a thousand times its
// tolerance against the cold serial run of the same document. A job the
// front warm-started from a neighbouring bias approaches the Born fixed
// point from another side; stopping at a G change below tol leaves it up
// to ~90 tol away from where the cold run stopped (measured on these
// families), so the solver workloads' factor of ten would fail sound jobs.
const fleetTolFactor = 1000

// verifySample is how many distinct documents of a mix are re-run directly.
const verifySample = 24

// checkMix verifies a finished mix: every job answered, converged and
// finite; every duplicate served a byte-identical result document; and a
// stratified sample of the distinct documents agrees with the plain serial
// run of the same document. It returns the direct runs of the sample and
// the largest deviation from them.
func checkMix(ctx context.Context, res *result, run *mixRun, sample int) (direct []*outcome, worst float64) {
	for i := range run.records {
		rec := &run.records[i]
		res.Attempted++
		if rec.err == nil {
			rec.err = checkOutcome(rec.doc.outcome())
		}
		if rec.err == nil && rec.job.Class == classDup {
			orig := &run.records[rec.job.Of]
			if orig.err == nil && !bytes.Equal(stripID(rec.raw, rec.doc.ID), stripID(orig.raw, orig.doc.ID)) {
				rec.err = fmt.Errorf("duplicate of job %d served a different result document", rec.job.Of)
			}
		}
		if rec.err != nil {
			res.Failed++
			res.fail("job %d (%s): %v", i, rec.job.Class, rec.err)
		}
	}
	var distinct []int
	for i, rec := range run.records {
		if rec.job.Class != classDup && rec.err == nil {
			distinct = append(distinct, i)
		}
	}
	step := max(1, len(distinct)/sample)
	for k := 0; k < len(distinct); k += step {
		rec := &run.records[distinct[k]]
		ref, err := solveChecked(ctx, rec.job.Doc.reference())
		if err != nil {
			res.fail("job %d: reference run: %v", rec.job.Index, err)
			continue
		}
		direct = append(direct, ref)
		dev, tol := maxRelErr(rec.doc.outcome(), ref.IL, ref.IR, ref.QL), rec.job.Doc.checkTol(fleetTolFactor)
		worst = math.Max(worst, dev)
		if dev > tol {
			res.Failed++
			res.fail("job %d (%s): observables off the serial run by %.3g (allowed %.3g)", rec.job.Index, rec.job.Class, dev, tol)
		}
	}
	return direct, worst
}

// solveChecked is one direct run that must converge to finite observables.
func solveChecked(ctx context.Context, d *runDoc) (*outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	o, err := solve(ctx, d, nil)
	if err != nil {
		return nil, err
	}
	return o, checkOutcome(o)
}

// stripID blanks the job id of a result document, the one field that
// legitimately differs between two submissions of the same document.
func stripID(raw []byte, id string) []byte {
	return bytes.Replace(raw, []byte(`"id":"`+id+`"`), []byte(`"id":""`), 1)
}

func runFleetMix(ctx context.Context, e env) (*result, error) {
	templates, err := loadTemplates(e.quick)
	if err != nil {
		return nil, err
	}
	if e.trace {
		jobs := generateJobs(templates, rungMixSize(e), e.seed)
		return tracedFleet(ctx, e, "fleet_mix", func(tr *tracer, res *result) fleetPass {
			return mixPass(ctx, tr, jobs, res)
		})
	}
	setObs(false)
	var jobs []fleetJob
	setup, err := fleetSetups(ctx, func() ([]byte, error) {
		jobs = generateJobs(templates, mixSize(e), e.seed)
		return templates[0].JSON(), nil // the same warm-up job at every seed
	})
	if err != nil {
		return nil, err
	}

	run := runMix(ctx, nil, jobs, false)
	res := &result{}
	checkMix(ctx, res, run, verifySample)

	var lat []float64
	for _, rec := range run.records {
		if rec.err == nil {
			lat = append(lat, rec.latency.Seconds())
		}
	}
	m := metricSet{
		"setup_s":         setup,
		"solve_s":         median(lat),
		"ops_per_s":       float64(len(lat)) / run.window.Seconds(),
		"alloc_mb_per_op": run.allocMB / float64(len(jobs)),
	}
	return res.seal(m, endToEnd), nil
}

// --- fleet_iv ---

// campaignRecord is what one campaign measured.
type campaignRecord struct {
	latency  time.Duration // submit → artifact body read
	artifact time.Duration // the artifact call alone
	rows     []ivRow
	jobIDs   []string     // the front job behind each point
	iters    []iterRecord // the points' iteration logs (traced runs only)
	base     *runDoc      // the campaign's base document
	err      error
}

type ivRow struct {
	Bias        float64 `json:"bias"`
	CurrentL    float64 `json:"current_l"`
	CurrentR    float64 `json:"current_r"`
	Iterations  int     `json:"iterations"`
	Converged   bool    `json:"converged"`
	WarmStarted bool    `json:"warm_started"`
}

// campaignBody renders the campaign request document with its base config
// replaced by doc and its warm_start flag set.
func campaignBody(template []byte, doc *runDoc, warm bool) ([]byte, error) {
	var req map[string]json.RawMessage
	if err := json.Unmarshal(template, &req); err != nil {
		return nil, err
	}
	req["config"] = doc.JSON()
	req["warm_start"], _ = json.Marshal(warm)
	return json.Marshal(req)
}

// runCampaign submits one campaign, polls it to a terminal state and reads
// its JSON artifact.
func (c *fleetClient) runCampaign(ctx context.Context, tr *tracer, op int, body []byte) (rec campaignRecord) {
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	t0 := time.Now()
	root := tr.begin("campaign", 0, op)
	defer func() {
		rec.latency = time.Since(t0)
		tr.end(root)
	}()

	var st struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Points []struct {
			JobID string `json:"job_id"`
		} `json:"points"`
	}
	tr.call("campaign.submit", root, op, func() {
		rec.err = c.getJSON(ctx, http.MethodPost, "/v1/campaigns", body, http.StatusAccepted, &st)
	})
	wait := tr.begin("campaign.wait", root, op)
	for rec.err == nil && st.State == "running" {
		select {
		case <-ctx.Done():
			rec.err = ctx.Err()
		case <-time.After(time.Millisecond):
			rec.err = c.getJSON(ctx, http.MethodGet, "/v1/campaigns/"+st.ID, nil, http.StatusOK, &st)
		}
	}
	tr.end(wait)
	if rec.err == nil && st.State != "succeeded" {
		rec.err = fmt.Errorf("campaign %s %s: %s", st.ID, st.State, st.Error)
	}
	if rec.err != nil {
		return rec
	}
	var art struct {
		IV []ivRow `json:"iv"`
	}
	t1 := time.Now()
	tr.call("campaign.artifact", root, op, func() {
		rec.err = c.getJSON(ctx, http.MethodGet, "/v1/campaigns/"+st.ID+"/artifact.json", nil, http.StatusOK, &art)
	})
	rec.artifact, rec.rows = time.Since(t1), art.IV
	for _, p := range st.Points {
		rec.jobIDs = append(rec.jobIDs, p.JobID)
	}
	return rec
}

// ivInputs draws n campaign bodies from the seed: the campaign document
// with a seeded thermal energy each, so no campaign finds a cached family.
func ivInputs(quick bool, n int, seed uint64, warm bool) (bodies [][]byte, bases []*runDoc, err error) {
	template, err := loadDocBytes("fleet_iv", quick)
	if err != nil {
		return nil, nil, err
	}
	var req struct {
		Config json.RawMessage `json:"config"`
	}
	if err := json.Unmarshal(template, &req); err != nil {
		return nil, nil, err
	}
	base, err := parseRunDoc(req.Config)
	if err != nil {
		return nil, nil, fmt.Errorf("workloads/fleet_iv.json: %w", err)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < n; i++ {
		doc := base.withKT(0.020 + 0.010*rng.Float64())
		body, err := campaignBody(template, doc, warm)
		if err != nil {
			return nil, nil, err
		}
		bodies, bases = append(bodies, body), append(bases, doc)
	}
	return bodies, bases, nil
}

// checkCampaigns verifies finished campaigns: every one produced a full
// converged curve, and every point of a sample agrees with the plain serial
// run of that point's document. It returns the direct runs of the sample
// and the largest deviation from them.
func checkCampaigns(ctx context.Context, res *result, recs []campaignRecord, sample int) (direct []*outcome, worst float64) {
	step := max(1, len(recs)/sample)
	for i := range recs {
		rec := &recs[i]
		res.Attempted++
		if rec.err == nil && len(rec.rows) == 0 {
			rec.err = fmt.Errorf("empty artifact")
		}
		for _, row := range rec.rows {
			if rec.err == nil && (!row.Converged || !finite(row.CurrentL) || !finite(row.CurrentR)) {
				rec.err = fmt.Errorf("point at bias %g not converged or not finite", row.Bias)
			}
		}
		if rec.err == nil && i%step == 0 {
			for _, row := range rec.rows {
				doc := rec.base.withBias(row.Bias)
				ref, err := solveChecked(ctx, doc)
				if err != nil {
					rec.err = fmt.Errorf("reference run at bias %g: %w", row.Bias, err)
					break
				}
				direct = append(direct, ref)
				dev := math.Max(relErr(row.CurrentL, ref.IL), relErr(row.CurrentR, ref.IR))
				worst = math.Max(worst, dev)
				if tol := doc.checkTol(fleetTolFactor); dev > tol {
					rec.err = fmt.Errorf("point at bias %g off the serial run by %.3g (allowed %.3g)", row.Bias, dev, tol)
					break
				}
			}
		}
		if rec.err != nil {
			res.Failed++
			res.fail("campaign %d: %v", i, rec.err)
		}
	}
	return direct, worst
}

// ivSize is the campaign count of a run: 3.2 per second of measurement
// (32 at the default 10 s, which these campaigns fill at HEAD).
func ivSize(e env) int {
	return e.size(max(3, int(math.Round(3.2*e.seconds))), 2)
}

// runCampaigns pushes campaign bodies through a fresh fleet one after the
// other. With wantIters it also reads back every point's iteration log
// before the fleet goes away.
func runCampaigns(ctx context.Context, tr *tracer, bodies [][]byte, bases []*runDoc, wantIters bool) (recs []campaignRecord, window time.Duration, alloc float64) {
	fl := startFleet()
	defer fl.close()
	cl := newFleetClient(fl.URL)
	defer cl.close()
	a0 := allocMB()
	start := time.Now()
	for i, body := range bodies {
		rec := cl.runCampaign(ctx, tr, i+1, body)
		rec.base = bases[i]
		recs = append(recs, rec)
	}
	window, alloc = time.Since(start), allocMB()-a0
	for i := range recs {
		for _, id := range recs[i].jobIDs {
			if !wantIters || recs[i].err != nil {
				break
			}
			its, err := cl.stream(ctx, "/v1/jobs/"+id+"/stream")
			recs[i].iters, recs[i].err = append(recs[i].iters, its...), err
		}
	}
	return recs, window, alloc
}

func runFleetIV(ctx context.Context, e env) (*result, error) {
	templates, err := loadTemplates(e.quick)
	if err != nil {
		return nil, err
	}
	if e.trace {
		bodies, bases, err := ivInputs(e.quick, e.size(2, 1), e.seed, true)
		if err != nil {
			return nil, err
		}
		return tracedFleet(ctx, e, "fleet_iv", func(tr *tracer, res *result) fleetPass {
			return ivPass(ctx, tr, bodies, bases, res)
		})
	}
	setObs(false)
	var bodies [][]byte
	var bases []*runDoc
	setup, err := fleetSetups(ctx, func() (body []byte, err error) {
		if bodies, bases, err = ivInputs(e.quick, ivSize(e), e.seed, true); err != nil {
			return nil, err
		}
		return templates[0].JSON(), nil // the same warm-up job at every seed
	})
	if err != nil {
		return nil, err
	}

	recs, window, alloc := runCampaigns(ctx, nil, bodies, bases, false)
	res := &result{}
	checkCampaigns(ctx, res, recs, 2)

	var lat []float64
	for _, rec := range recs {
		if rec.err == nil {
			lat = append(lat, rec.latency.Seconds())
		}
	}
	m := metricSet{
		"setup_s":         setup,
		"solve_s":         median(lat),
		"ops_per_s":       float64(len(lat)) / window.Seconds(),
		"alloc_mb_per_op": alloc / float64(len(recs)),
	}
	return res.seal(m, endToEnd), nil
}
