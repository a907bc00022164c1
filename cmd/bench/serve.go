package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/serve"
)

const modelID = "bench"

// served is a serving workload's daemon state: the directory holding the
// two published versions, the data each was trained on, and held-out rows.
type served struct {
	p        serveParams
	dir      string
	trainDS  [2]*dataset.Dataset
	specs    [2]serve.SearchSpec
	heldout  *dataset.Dataset
	attrs    []serve.AttrSpec
	trainSec float64
	hot      []*dataset.Dataset
	hotBody  [][2][]byte
	// cal runs on two goroutines, as the daemon serves with two predict
	// ranks and two clients.
	cal *calib
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// prepareServe generates a serving workload's data, then trains the pair
// of versions through the daemon's job API back to back for budget, and at
// least minReps times. The first pair is published into dir, the state
// directory the workload restarts over (a restart reads every job's
// request); each later pair trains in a directory of its own, removed
// after. Equal requests must fit equal models, and train_s is the sum of
// the two jobs' median scaled times (see runTrain).
func prepareServe(rc *runCtx, p serveParams, dir string, budget time.Duration, minReps int, out *outcome) (*served, error) {
	sv := &served{p: p, dir: dir, cal: newCalib(2, false)}
	for v := 0; v < 2; v++ {
		ds, err := datagen.Paper(p.TrainN, rc.seed+uint64(2*v))
		if err != nil {
			return nil, err
		}
		sv.trainDS[v] = ds
		seed := rc.seed + uint64(v)
		// RelDelta is the smallest positive value: the daemon maps 0 to its
		// default, and this keeps every try at MaxCycles cycles.
		sv.specs[v] = serve.SearchSpec{StartJList: []int{p.ModelJ}, Tries: 1, Seed: &seed,
			MaxCycles: p.MaxCycles, RelDelta: math.SmallestNonzeroFloat64, Parallelism: 1}
	}
	var err error
	if sv.heldout, err = datagen.Paper(20000, rc.seed+1); err != nil {
		return nil, err
	}
	for _, a := range sv.trainDS[0].Attrs() {
		sv.attrs = append(sv.attrs, serve.AttrSpec{Name: a.Name, Type: "real"})
	}
	if err := sv.buildHotSet(rand.New(rand.NewSource(int64(rc.seed) + 3))); err != nil {
		return nil, err
	}

	var bodies [2][]byte
	for v := range bodies {
		if bodies[v], err = json.Marshal(serve.JobRequest{Name: fmt.Sprintf("v%d", v+1), Attrs: sv.attrs,
			Rows: wireRows(sv.trainDS[v], 0, sv.trainDS[v].N()), Search: &sv.specs[v]}); err != nil {
			return nil, err
		}
	}
	// The daemon trains a job on two ranks.
	jobCal := newCalib(2, true)
	var jobs [2]sample
	var scores [2]float64
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start) < budget; rep++ {
		d := dir
		if rep > 0 {
			d = fmt.Sprintf("%s-retrain%d", dir, rep)
		}
		secs, got, err := trainPair(d, bodies, rep == 0, jobCal)
		if rep > 0 {
			if rmErr := os.RemoveAll(d); err == nil {
				err = rmErr
			}
		}
		if err != nil {
			return nil, err
		}
		for v := range got {
			out.check(rep == 0 || math.Float64bits(got[v]) == math.Float64bits(scores[v]),
				"retraining v%d gave score %v, first training %v", v+1, got[v], scores[v])
			jobs[v] = append(jobs[v], secs[v])
		}
		scores = got
	}
	sv.trainSec = jobs[0].median() + jobs[1].median()
	out.stats["job_v1_s"] = jobs[0].stat()
	out.stats["job_v2_s"] = jobs[1].stat()
	return sv, nil
}

// trainPair starts a daemon over dir, trains both versions through its job
// API (submit → done, the time a serving user waits for), optionally
// publishes them as versions 1 and 2 of the model (2 ends up active), and
// returns each job's time, scaled by a calibration run right before it,
// and the two models' scores.
func trainPair(dir string, bodies [2][]byte, publish bool, cal *calib) ([2]float64, [2]float64, error) {
	var secs, scores [2]float64
	s, err := serve.New(serve.Config{Dir: dir, Procs: 2, Logger: quietLogger()})
	if err != nil {
		return secs, scores, err
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := ts.Client()
	var ids [2]string
	for v := range bodies {
		scale := cal.run()
		start := time.Now()
		if ids[v], scores[v], err = trainJob(c, ts.URL, bodies[v]); err != nil {
			return secs, scores, err
		}
		secs[v] = time.Since(start).Seconds() * scale
	}
	if !publish {
		return secs, scores, nil
	}
	for v, id := range ids {
		if code, body, err := postJSON(c, ts.URL+"/v1/models", serve.PublishRequest{ID: modelID, JobID: id}); err != nil {
			return secs, scores, err
		} else if code != http.StatusCreated {
			return secs, scores, fmt.Errorf("publish v%d: status %d: %s", v+1, code, body)
		}
	}
	return secs, scores, nil
}

// trainJob submits one training job, polls it until done, and returns its
// ID and the fitted model's score.
func trainJob(c *http.Client, base string, body []byte) (string, float64, error) {
	code, out, err := post(c, base+"/v1/jobs", body, "")
	if err != nil {
		return "", 0, err
	}
	if code != http.StatusAccepted {
		return "", 0, fmt.Errorf("submit: status %d: %s", code, out)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		return "", 0, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, out, err := get(c, base+"/v1/jobs/"+st.ID)
		if err != nil {
			return "", 0, err
		}
		if code != http.StatusOK {
			return "", 0, fmt.Errorf("poll job %s: status %d", st.ID, code)
		}
		if err := json.Unmarshal(out, &st); err != nil {
			return "", 0, err
		}
		switch st.State {
		case serve.StateDone:
			return st.ID, st.Score, nil
		case serve.StateFailed:
			return "", 0, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		}
		if time.Now().After(deadline) {
			return "", 0, fmt.Errorf("job %s still %s after 60s", st.ID, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// daemon is one running pautoclassd over the state directory.
type daemon struct {
	s      *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func (d *daemon) close() error {
	d.client.CloseIdleConnections()
	d.ts.Close()
	return d.s.Close()
}

// restart starts the daemon over the state directory and returns once the
// first 200 has come back for each published version — the set-up a
// serving user waits for after a restart. wrap, when non-nil, wraps the
// server (the traced run's handler timer).
func (sv *served) restart(conns int, wrap func(http.Handler) http.Handler) (*daemon, error) {
	s, err := serve.New(serve.Config{Dir: sv.dir, Procs: 2, Logger: quietLogger(),
		PredictProcs: sv.p.PredictProcs, PredictCacheEntries: sv.p.CacheEntries})
	if err != nil {
		return nil, err
	}
	var h http.Handler = s
	if wrap != nil {
		h = wrap(s)
	}
	ts := httptest.NewServer(h)
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	d := &daemon{s: s, ts: ts, client: &http.Client{Transport: tr}}
	for v := 1; v <= 2; v++ {
		body, err := json.Marshal(serve.PredictRequest{Rows: wireRows(sv.heldout, v, 1), Version: v})
		if err != nil {
			d.close()
			return nil, err
		}
		code, out, err := post(d.client, ts.URL+"/v1/models/"+modelID+"/predict", body, "")
		if err != nil || code != http.StatusOK {
			d.close()
			return nil, fmt.Errorf("first predict on v%d after restart: status %d %s: %v", v, code, out, err)
		}
	}
	return d, nil
}

// request is one predict call of a workload's pool.
type request struct {
	body    []byte
	version int // pinned version, 0 for the active one
	rows    *dataset.Dataset
	hot     int // hot body index, -1 when unique
	// want is the digest of the expected values and wantBody the SHA-256
	// of their wire form (verifier.expectAll).
	want, wantBody [32]byte
}

// result is what a client observed for one request. ok is a 200 whose
// decoded values are bitwise the expected ones.
type result struct {
	status int     // 0 when the request never completed
	latMs  float64 // from the send to the end of the response
	bytes  int
	ok     bool
}

// pool builds n requests drawn like the workload's traffic. Unique bodies
// take 1..MaxRows rows, log-uniform; with hot bodies, HotShare of requests
// draw a Zipf-distributed hot body, and every request pins version 1 or 2.
func (sv *served) pool(rng *rand.Rand, n int) ([]request, error) {
	p := sv.p
	var zipf *rand.Zipf
	if len(sv.hot) > 0 {
		zipf = rand.NewZipf(rng, p.ZipfS, 1, uint64(len(sv.hot)-1))
	}
	reqs := make([]request, n)
	sizes := make([]int, n)
	total := 0
	for i := range reqs {
		r := &reqs[i]
		r.hot = -1
		if zipf != nil {
			r.version = 1 + rng.Intn(2)
			if rng.Float64() < p.HotShare {
				r.hot = int(zipf.Uint64())
			}
		}
		if r.hot < 0 {
			sizes[i] = logUniform(rng, p.MaxRows)
			total += sizes[i]
		}
	}
	rows, err := datagen.Paper(total, rng.Uint64())
	if err != nil {
		return nil, err
	}
	off := 0
	for i := range reqs {
		r := &reqs[i]
		if r.hot >= 0 {
			r.rows = sv.hot[r.hot]
			r.body = sv.hotBody[r.hot][r.version-1]
			continue
		}
		r.rows = copyRows(rows, off, sizes[i])
		off += sizes[i]
		if r.body, err = json.Marshal(serve.PredictRequest{Rows: wireRows(r.rows, 0, r.rows.N()), Version: r.version}); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// logUniform draws an integer in [1, max], log-uniformly.
func logUniform(rng *rand.Rand, max int) int {
	n := int(math.Exp(rng.Float64() * math.Log(float64(max)+1)))
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

// copyRows copies rows [lo, lo+n) into a standalone dataset.
func copyRows(src *dataset.Dataset, lo, n int) *dataset.Dataset {
	ds := dataset.MustNew(src.Name, src.Attrs())
	ds.Grow(n)
	row := make([]float64, src.NumAttrs())
	for i := lo; i < lo+n; i++ {
		if err := ds.AppendRow(src.RowTo(row, i)); err != nil {
			panic(err) // rows of a valid dataset are valid rows of its schema
		}
	}
	return ds
}

// wireRows converts n rows from lo to the predict wire format.
func wireRows(ds *dataset.Dataset, lo, n int) [][]*float64 {
	rows := make([][]*float64, n)
	for i := range rows {
		src := ds.RowTo(nil, lo+i)
		row := make([]*float64, len(src))
		for k := range src {
			if !dataset.IsMissing(src[k]) {
				row[k] = &src[k]
			}
		}
		rows[i] = row
	}
	return rows
}

// reply is one request of a closed loop, kept small because a run keeps
// every one: its sequence number n in the loop (it sent request n mod the
// pool size, with X-Request-Id <phase>-<n> when traced), which client sent
// it, when, as an offset from the loop's start, and what came back.
type reply struct {
	sent   time.Duration
	n      int32
	bytes  int32
	latMs  float32
	status int16
	client int8
	ok     bool
}

// done is when the reply's response ended, as an offset from the loop's
// start.
func (r *reply) done() time.Duration {
	return r.sent + time.Duration(float64(r.latMs)*float64(time.Millisecond))
}

func requestID(phase string, n int32) string { return phase + "-" + strconv.Itoa(int(n)) }

// closedLoop has conns clients each send the next request of reqs (walking
// the pool in order from next and wrapping around) as soon as it has
// decoded its previous reply, for dur; next is left at the first request
// not sent. A request still unanswered at the end is cancelled and left
// out; one that failed before then is kept, with status 0. With a tracer,
// every request carries a unique X-Request-Id and a client span.
func closedLoop(d *daemon, reqs []request, next *atomic.Int32, conns int, dur time.Duration, tr *tracer, phase string) []reply {
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(dur))
	defer cancel()
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var mine []reply
			var buf bytes.Buffer
			for ctx.Err() == nil {
				n := int32(next.Add(1) - 1)
				sent := time.Since(start)
				id := ""
				if tr != nil {
					id = requestID(phase, n)
				}
				r := d.send(ctx, &reqs[int(n)%len(reqs)], id, tid, tr, &buf)
				if r.status != 0 || ctx.Err() == nil {
					mine = append(mine, reply{sent: sent, n: n, bytes: int32(r.bytes), latMs: float32(r.latMs),
						status: int16(r.status), client: int8(tid), ok: r.ok})
				}
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(w + 1)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].sent < out[j].sent })
	return out
}

// send posts one predict request, reading the response into buf, and
// returns what came back, with latency from the send to the end of the
// response. After the latency is taken, a 200 passes if its body is the
// expected wire form byte for byte, or else if its decoded values are
// bitwise the expected ones; a request that did not complete has status 0.
func (d *daemon) send(ctx context.Context, q *request, id string, tid int, tr *tracer, buf *bytes.Buffer) result {
	var r result
	sent := time.Now()
	sp := tr.begin("client.predict", tid, 0, id)
	code, err := postInto(ctx, d.client, d.ts.URL+"/v1/models/"+modelID+"/predict", q.body, id, buf)
	tr.end(sp)
	done := time.Now()
	if err != nil {
		return r
	}
	body := buf.Bytes()
	r.status, r.bytes = code, len(body)
	r.latMs = ms(done.Sub(sent))
	if code == http.StatusOK {
		if sha256.Sum256(body) == q.wantBody {
			r.ok = true
		} else {
			var pr serve.PredictResponse
			if json.Unmarshal(body, &pr) == nil {
				r.ok = responseDigest(pr.N, pr.J, pr.MAP, pr.LogLik, pr.Memberships) == q.want
			}
		}
	}
	return r
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// responseDigest hashes a prediction's values by their bits, so equal
// digests mean bitwise-equal memberships, MAP classes and log-likelihood.
func responseDigest(n, j int, mapv []int, logLik float64, memb [][]float64) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(n))
	put(uint64(j))
	put(uint64(len(mapv)))
	for _, m := range mapv {
		put(uint64(m))
	}
	put(math.Float64bits(logLik))
	put(uint64(len(memb)))
	for _, row := range memb {
		put(uint64(len(row)))
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// verifier computes the expected response of a request in process, with
// autoclass.Predict under the pinned (or active) version's checkpoint
// loaded from the registry directory. Expectations are kept per (rows,
// version), so a hot body is predicted once per version.
type verifier struct {
	models [2]*autoclass.Classification
	active int
	memo   map[expectKey][2][32]byte
}

type expectKey struct {
	rows    *dataset.Dataset
	version int
}

func (sv *served) newVerifier(active int) (*verifier, error) {
	vf := &verifier{active: active, memo: map[expectKey][2][32]byte{}}
	schema := dataset.MustNew("schema", sv.trainDS[0].Attrs())
	for v := 0; v < 2; v++ {
		var ck autoclass.Checkpoint
		path := filepath.Join(sv.dir, "registry", modelID, fmt.Sprintf("v%d.ckpt", v+1))
		if err := ck.LoadFile(path, schema); err != nil {
			return nil, fmt.Errorf("load v%d for verification: %w", v+1, err)
		}
		vf.models[v] = ck.Classification
	}
	return vf, nil
}

// expectAll sets every request's expected digests before any is sent, so
// a client checks each reply as it arrives: the digest of the values
// in-process Predict gives, and the SHA-256 of those values in the
// daemon's wire form (encoding/json and a newline), which lets a client
// check a reply without decoding it.
func (vf *verifier) expectAll(reqs []request) error {
	for i := range reqs {
		r := &reqs[i]
		v := r.version
		if v == 0 {
			v = vf.active
		}
		key := expectKey{r.rows, v}
		if d, ok := vf.memo[key]; ok {
			r.want, r.wantBody = d[0], d[1]
			continue
		}
		p, err := autoclass.Predict(vf.models[v-1], r.rows, autoclass.PredictConfig{})
		if err != nil {
			return err
		}
		memb := make([][]float64, p.N())
		for i := range memb {
			memb[i] = p.Membership(i)
		}
		wire, err := json.Marshal(serve.PredictResponse{N: p.N(), J: p.J, MAP: p.MAP, LogLik: p.LogLik, Memberships: memb})
		if err != nil {
			return err
		}
		r.want = responseDigest(p.N(), p.J, p.MAP, p.LogLik, memb)
		r.wantBody = sha256.Sum256(append(wire, '\n'))
		vf.memo[key] = [2][32]byte{r.want, r.wantBody}
	}
	return nil
}

// check counts every reply of a loop as one operation: it passes when it
// is a 200 whose decoded values are bitwise those of in-process Predict.
func check(replies []reply, out *outcome, phase string) {
	for i := range replies {
		r := &replies[i]
		out.check(r.ok, "%s request %d: status %d (0 = no answer), or a response that differs from in-process Predict",
			phase, r.n, r.status)
	}
}

// activator flips the active version once a second until stopped, timing
// each POST /activate.
type activator struct {
	stop chan struct{}
	done chan struct{}
	lat  sample
	errs int
}

func startActivator(d *daemon, every time.Duration) *activator {
	a := &activator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		t := time.NewTicker(every)
		defer t.Stop()
		v := 1
		for {
			select {
			case <-a.stop:
				return
			case <-t.C:
				lat, err := activate(d, v)
				if err != nil {
					a.errs++
				} else {
					a.lat = append(a.lat, lat)
				}
				v = 3 - v
			}
		}
	}()
	return a
}

// halt stops the activator and waits for it to exit.
func (a *activator) halt() {
	close(a.stop)
	<-a.done
}

func activate(d *daemon, v int) (float64, error) {
	start := time.Now()
	code, out, err := postJSON(d.client, d.ts.URL+"/v1/models/"+modelID+"/activate", serve.ActivateRequest{Version: v})
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("activate v%d: status %d: %s", v, code, out)
	}
	return ms(time.Since(start)), nil
}

// buildHotSet builds the workload's hot bodies, if it has any, and each
// one's request body pinned to version 1 and to version 2. Every phase
// draws from this one set, which the verifier's per-body expectations rely
// on.
func (sv *served) buildHotSet(rng *rand.Rand) error {
	sv.hot = make([]*dataset.Dataset, sv.p.HotBodies)
	sv.hotBody = make([][2][]byte, sv.p.HotBodies)
	for i := range sv.hot {
		ds, err := datagen.Paper(hotRows(i, len(sv.hot), sv.p.MaxRows), rng.Uint64())
		if err != nil {
			return err
		}
		sv.hot[i] = ds
		for v := 1; v <= 2; v++ {
			if sv.hotBody[i][v-1], err = json.Marshal(serve.PredictRequest{Rows: wireRows(ds, 0, ds.N()), Version: v}); err != nil {
				return err
			}
		}
	}
	return nil
}

// hotRows is the row count of hot body i of n: the bodies take n sizes
// spaced evenly in log from 1 to max, in an order that interleaves small
// and large among the popular ones. The mix of sizes, and with it the cost
// of the traffic, is then the same for every seed; the rows' values are
// not.
func hotRows(i, n, max int) int {
	if n < 2 {
		return max
	}
	j := i * 29 % n // a permutation of 0..n-1 while n (HotBodies, 64) is prime to 29
	return int(math.Round(math.Exp(math.Log(float64(max)) * float64(j) / float64(n-1))))
}

// segSec is the length of the segments a measured loop is cut into, each
// led by a calibration run; warmSec is how long a serving run drives its
// daemon before it measures; trainShare is the share of a serving run's
// seconds that trains the served versions.
const (
	segSec     = 0.5
	warmSec    = 1.0
	trainShare = 0.25
)

// latencies is every reply's latency, a failed request counting as slower
// than any limit.
func latencies(replies []reply) sample {
	s := make(sample, len(replies))
	for i, r := range replies {
		s[i] = math.Inf(1)
		if r.ok {
			s[i] = float64(r.latMs)
		}
	}
	return s
}

// runServe is a serving workload: train and publish two versions, time the
// restart, then drive the daemon with a closed loop of Conns clients over
// the workload's pool, warm up for warmSec and measure for the run's
// seconds; every reply is checked.
func runServe(rc *runCtx, p serveParams) (*outcome, error) {
	dur := time.Duration(rc.seconds * float64(time.Second))
	if rc.seconds*(1-trainShare) < 2*segSec {
		return nil, fmt.Errorf("-seconds %v leaves under two %v s segments to serve", rc.seconds, segSec)
	}
	out := newOutcome()
	// A quarter of the run's seconds trains the served versions, the rest
	// serves them.
	train := time.Duration(rc.seconds * trainShare * float64(time.Second))
	dur -= train
	sv, err := prepareServe(rc, p, filepath.Join(rc.dir, "state"), train, 2, out)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	out.m["train_s"] = sv.trainSec
	if rc.trace {
		return out, traceServe(rc, sv, out)
	}
	var setup, wall sample
	var d *daemon
	for i := 0; i < setupReps(rc.quick); i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		scale := sv.cal.run()
		start := time.Now()
		if d, err = sv.restart(p.Conns, nil); err != nil {
			return nil, err
		}
		sec := time.Since(start).Seconds()
		setup = append(setup, sec*scale)
		wall = append(wall, sec)
	}
	defer d.close()
	out.m["setup_s"] = setup.median()
	out.stats["setup_s"] = setup.stat()
	out.stats["setup_wall_s"] = wall.stat()

	vf, err := sv.newVerifier(2)
	if err != nil {
		return nil, err
	}
	pool, err := sv.pool(rand.New(rand.NewSource(int64(rc.seed))), p.Pool)
	if err != nil {
		return nil, err
	}
	if err := vf.expectAll(pool); err != nil {
		return nil, err
	}
	// The activations run through the warm-up and the measured loop, so
	// every measured second of serve-hot includes one purge.
	if p.Activate {
		act := startActivator(d, time.Second)
		defer func() {
			act.halt()
			out.check(act.errs == 0, "%d activations failed", act.errs)
		}()
	}
	runtime.GC()
	var next atomic.Int32
	check(closedLoop(d, pool, &next, p.Conns, time.Duration(warmSec*float64(time.Second)), nil, ""), out, "warm-up")
	// Each segment is one repetition of p50 and throughput, scaled by the
	// calibration run that leads it, and the run reports their medians
	// over the segments. The tail is in the record's latency statistics
	// (p99 of every reply), not among the gated metrics: it moved with the
	// host's load far beyond any bound (README.md).
	seg := time.Duration(segSec * float64(time.Second))
	var p50s, rates, all sample
	for left := dur; left >= seg; left -= seg {
		scale := sv.cal.run()
		replies := closedLoop(d, pool, &next, p.Conns, seg, nil, "")
		check(replies, out, "measured")
		lat := latencies(replies)
		p50s = append(p50s, lat.median()*scale)
		rates = append(rates, float64(len(replies))/segSec/scale)
		all = append(all, lat...)
	}
	out.m["p50_ms"] = p50s.median()
	out.m["throughput_per_s"] = rates.median()
	out.stats["latency_ms"] = all.stat()
	out.stats["calib_s"] = sv.cal.took.stat()
	nll, err := servedNLL(vf, sv.heldout)
	if err != nil {
		return nil, err
	}
	out.m["heldout_nll_per_row"] = nll
	return out, nil
}

// servedNLL is the mean held-out negative log-likelihood per row of the two
// served versions.
func servedNLL(vf *verifier, heldout *dataset.Dataset) (float64, error) {
	total := 0.0
	for _, m := range vf.models {
		nll, err := heldoutNLL(m, heldout)
		if err != nil {
			return 0, err
		}
		total += nll
	}
	return total / 2, nil
}

func postJSON(c *http.Client, url string, v any) (int, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	return post(c, url, b, "")
}

func post(c *http.Client, url string, body []byte, reqID string) (int, []byte, error) {
	return postCtx(context.Background(), c, url, body, reqID)
}

func postCtx(ctx context.Context, c *http.Client, url string, body []byte, reqID string) (int, []byte, error) {
	var buf bytes.Buffer
	code, err := postInto(ctx, c, url, body, reqID, &buf)
	return code, buf.Bytes(), err
}

// postInto posts body and reads the response into buf, which is reset
// first.
func postInto(ctx context.Context, c *http.Client, url string, body []byte, reqID string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
