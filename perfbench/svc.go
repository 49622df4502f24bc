package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"eva/eva"
	"eva/internal/apps"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/serve"
)

// svcErrBound bounds the largest absolute slot error of a regression result
// against App.Plain.
const svcErrBound = 1e-3

// svcRegress serves Multivariate Regression over loopback HTTP with
// client-side keys: only evaluation keys and ciphertexts reach the server.
type svcRegress struct {
	e      *env
	app    *apps.App
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *eva.Client
	comp   serve.CompileResponse
	ctxID  string
	params *ckks.Parameters
	encdr  *ckks.Encoder
	// Per-client state.
	rngs  []*rand.Rand
	encs  []*ckks.Encryptor
	decs  []*ckks.Decryptor
	calls []int
}

func setupSvc(e *env, sc spanRef) (inst instance, err error) {
	app, err := apps.MultivariateRegression(2048, 4)
	if err != nil {
		return nil, err
	}
	w := &svcRegress{e: e, app: app, served: make(chan error, 1)}
	defer func() {
		if err != nil {
			w.close()
		}
	}()

	s := sc.child("serve.start")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.end()
		return nil, err
	}
	w.srv = serve.NewServer(serve.Config{})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() { w.served <- w.hs.Serve(ln) }()
	w.tr = &http.Transport{MaxIdleConnsPerHost: e.clients}
	w.client = &eva.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: w.tr}}
	s.end()

	ctx := context.Background()
	s = sc.child("bench.build")
	prog, err := app.Program.SerializeBytes()
	s.end()
	if err != nil {
		return nil, err
	}
	// The server's default options: 128-bit-secure parameters.
	s = sc.child("http.compile")
	w.comp, err = w.client.Compile(ctx, eva.CompileRequest{Program: prog})
	s.end()
	if err != nil {
		return nil, err
	}
	if e.trace != nil {
		// The server keeps its compile.Result; the traced run compiles the
		// same program locally for the compile.* counts and checks that both
		// agree on the parameters.
		res, err := compileChecked(e, sc, app.Program, compile.DefaultOptions())
		if err != nil {
			return nil, err
		}
		if res.LogN != w.comp.Params.LogN || len(res.RotationSteps) != len(w.comp.RotationSteps) {
			return nil, fmt.Errorf("local compile (logN %d, %d rotations) disagrees with the server (logN %d, %d rotations)",
				res.LogN, len(res.RotationSteps), w.comp.Params.LogN, len(w.comp.RotationSteps))
		}
	}

	s = sc.child("ckks.keygen")
	w.params, err = ckks.NewParameters(w.comp.Params.Literal())
	var sk *ckks.SecretKey
	var pk *ckks.PublicKey
	var rlk *ckks.RelinearizationKey
	var rtk *ckks.RotationKeySet
	if err == nil {
		kg := ckks.NewKeyGenerator(w.params, ckks.NewTestPRNG(uint64(e.seed)*4+1))
		sk = kg.GenSecretKey()
		pk = kg.GenPublicKey(sk)
		if rlk, err = kg.GenRelinearizationKey(sk); err == nil {
			rtk, err = kg.GenRotationKeys(w.comp.RotationSteps, sk)
		}
	}
	s.end()
	if err != nil {
		return nil, err
	}

	s = sc.child("wire.keys")
	keys, size, err := encodeEvalKeys(rlk, rtk)
	s.end()
	if err != nil {
		return nil, err
	}
	e.counts.add("ckks.eval_keys_mb", float64(size)/(1<<20))

	s = sc.child("http.contexts")
	var ctxResp serve.ContextResponse
	err = postJSON(ctx, w.client, "/contexts", serve.ContextRequest{ProgramID: w.comp.ID, Keys: keys}, &ctxResp)
	s.end()
	if err != nil {
		return nil, err
	}
	w.ctxID = ctxResp.ContextID

	w.encdr = ckks.NewEncoder(w.params)
	for c := 0; c < e.clients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(e.seed*1000+int64(c)+1)))
		w.encs = append(w.encs, ckks.NewEncryptor(w.params, pk, ckks.NewTestPRNG(uint64(e.seed)*4+2+uint64(c)<<32)))
		w.decs = append(w.decs, ckks.NewDecryptor(w.params, sk))
		w.calls = append(w.calls, 0)
	}
	return w, nil
}

// encodeEvalKeys serializes the public evaluation keys for upload and
// returns their binary size. rtk may be nil for a program without rotations.
func encodeEvalKeys(rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeySet) (*serve.EvalKeysJSON, int, error) {
	keys := &serve.EvalKeysJSON{Rotations: map[string]string{}}
	b, err := rlk.MarshalBinary()
	if err != nil {
		return nil, 0, err
	}
	size := len(b)
	keys.Relin = base64.StdEncoding.EncodeToString(b)
	if rtk == nil {
		return keys, size, nil
	}
	for galEl, swk := range rtk.Keys {
		b, err := swk.MarshalBinary()
		if err != nil {
			return nil, 0, err
		}
		size += len(b)
		keys.Rotations[strconv.FormatUint(galEl, 10)] = base64.StdEncoding.EncodeToString(b)
	}
	return keys, size, nil
}

// postJSON posts body to path and decodes the JSON answer into out.
func postJSON(ctx context.Context, c *eva.Client, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.DoRaw(ctx, http.MethodPost, path, http.Header{"Content-Type": {"application/json"}}, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, apiErr.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// request alternates each client between the synchronous /execute route and
// the asynchronous /jobs route (submit, wait, fetch).
func (w *svcRegress) request(c int, sc spanRef) (time.Duration, float64, error) {
	s := sc.child("bench.input")
	in := w.app.MakeInputs(w.rngs[c])
	s.end()
	useJobs := w.calls[c]%2 == 1
	w.calls[c]++
	ctx := context.Background()

	start := time.Now()
	s = sc.child("ckks.encode")
	pt, err := w.encdr.Encode(in["x"], math.Exp2(w.comp.InputScales["x"]), w.params.MaxLevel())
	s.end()
	if err != nil {
		return 0, 0, err
	}
	s = sc.child("ckks.encrypt")
	ct, err := w.encs[c].Encrypt(pt)
	s.end()
	if err != nil {
		return 0, 0, err
	}
	s = sc.child("wire.encode")
	data, err := ct.MarshalBinary()
	payload := base64.StdEncoding.EncodeToString(data)
	s.end()
	if err != nil {
		return 0, 0, err
	}
	w.e.counts.add("wire.request_kb", float64(len(payload))/1024)
	batches := []serve.ExecuteBatch{{Cipher: map[string]string{"x": payload}}}

	var result serve.BatchResult
	var jobID string
	var jobHTTP time.Duration // submit + wait + fetch, for serve.unattributed_ms
	var shed bool
	if !useJobs {
		s = sc.child("http.execute")
		resp, err := w.client.Execute(ctx, w.comp.ID, serve.ExecuteRequest{ContextID: w.ctxID, Batches: batches})
		s.end()
		if err != nil {
			return time.Since(start), 0, err
		}
		if len(resp.Results) != 1 {
			return time.Since(start), 0, fmt.Errorf("/execute returned %d results, want 1", len(resp.Results))
		}
		result = resp.Results[0]
	} else {
		s = sc.child("http.submit")
		t0 := time.Now()
		var sub eva.SubmitResult
		for {
			sub, err = w.client.Submit(ctx, w.comp.ID, w.ctxID, batches, eva.SubmitOptions{})
			var apiErr *eva.APIError
			if !errors.As(err, &apiErr) || !apiErr.Overloaded() {
				break
			}
			// Admission shed the job: count it, wait as told and retry, so
			// the request still completes and is checked. It counts as failed.
			shed = true
			w.e.counts.add("jobs.shed", 1)
			time.Sleep(max(apiErr.RetryAfter, 10*time.Millisecond))
		}
		s.end()
		if err != nil {
			return time.Since(start), 0, err
		}
		jobID = sub.Job.JobID
		s = sc.child("http.wait")
		st, err := w.client.WaitJob(ctx, jobID)
		s.end()
		if err != nil {
			return time.Since(start), 0, err
		}
		if st.Status != "done" {
			return time.Since(start), 0, fmt.Errorf("job %s ended %s: %s", jobID, st.Status, st.Error)
		}
		s = sc.child("http.fetch")
		res, err := w.client.FetchJobResult(ctx, jobID)
		jobHTTP = time.Since(t0)
		s.end()
		if err != nil {
			return time.Since(start), 0, err
		}
		if len(res.Results) != 1 {
			return time.Since(start), 0, fmt.Errorf("job %s returned %d results, want 1", jobID, len(res.Results))
		}
		result = res.Results[0]
	}
	if result.Error != "" {
		return time.Since(start), 0, fmt.Errorf("server: %s", result.Error)
	}

	s = sc.child("wire.decode")
	out := new(ckks.Ciphertext)
	raw, err := base64.StdEncoding.DecodeString(result.Cipher["y"])
	if err == nil {
		err = out.UnmarshalBinary(raw)
	}
	s.end()
	if err != nil {
		return time.Since(start), 0, fmt.Errorf("decoding result: %w", err)
	}
	w.e.counts.add("wire.response_kb", float64(len(result.Cipher["y"]))/1024)
	s = sc.child("ckks.decrypt")
	opt := w.decs[c].Decrypt(out)
	s.end()
	s = sc.child("ckks.decode")
	got := w.encdr.Decode(opt)
	s.end()
	lat := time.Since(start)

	s = sc.child("bench.check")
	want := w.app.Plain(in)["y"]
	maxErr := maxAbsErr(got, want)
	s.end()
	if !(maxErr <= svcErrBound) {
		return lat, maxErr, fmt.Errorf("slot error %g exceeds bound %g", maxErr, svcErrBound)
	}
	if useJobs && w.e.counts != nil {
		s = sc.child("bench.server_trace")
		err := w.recordServerTrace(ctx, jobID, jobHTTP)
		s.end()
		if err != nil {
			return lat, maxErr, err
		}
	}
	if shed {
		return lat, maxErr, fmt.Errorf("job submission was shed with HTTP 429")
	}
	return lat, maxErr, nil
}

// recordServerTrace reads the job's span tree from GET /jobs/{id}/trace and
// records the server's queue wait, execution time, and the part of the
// client's HTTP time that no server span accounts for.
func (w *svcRegress) recordServerTrace(ctx context.Context, jobID string, httpTime time.Duration) error {
	tr, err := w.client.FetchJobTrace(ctx, jobID)
	if err != nil {
		return fmt.Errorf("fetching job trace: %w", err)
	}
	sums := map[string]float64{}
	var walk func([]eva.JobTraceSpan)
	walk = func(spans []eva.JobTraceSpan) {
		for _, sp := range spans {
			sums[sp.Name] += sp.DurationMS
			walk(sp.Children)
		}
	}
	walk(tr.Spans)
	w.e.counts.add("serve.queue_wait_ms", sums["queue_wait"])
	w.e.counts.add("serve.execute_ms", sums["execute"])
	w.e.counts.add("serve.unattributed_ms", ms(httpTime)-tr.DurationMS)
	return nil
}

func (w *svcRegress) finish() (float64, error) { return 0, nil }

func (w *svcRegress) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.hs.Shutdown(ctx) // a forced close follows if draining times out
		cancel()
		w.hs.Close()
		<-w.served
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
}
