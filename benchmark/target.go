package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"acd/internal/incremental"
	"acd/internal/shard"
)

// clustersView is what a read of the clustering returns.
type clustersView struct {
	records  int
	clusters [][]int
	bytes    int // response size; 0 below the serve layer
}

// target is one rung of the layer ladder: the same four operations
// against the server over loopback, the HTTP handler called directly,
// the shard group, or the bare incremental engine. The driver times
// each call from outside.
type target interface {
	records(recs []payload) (ids []int, err error)
	answers(as []answer) (accepted, known int, err error)
	resolve() (incremental.ResolveStats, error)
	clusters() (clustersView, error)
}

// Wire forms of the acdserve API.
type (
	wireRecord struct {
		Fields map[string]string `json:"fields"`
	}
	wireAnswer struct {
		Lo int     `json:"lo"`
		Hi int     `json:"hi"`
		FC float64 `json:"fc"`
	}
	wireRecordsResp struct {
		IDs []int `json:"ids"`
	}
	wireAnswersResp struct {
		Accepted int `json:"accepted"`
		Known    int `json:"known"`
	}
	wireClustersResp struct {
		Records  int     `json:"records"`
		Clusters [][]int `json:"clusters"`
	}
)

func recordsBody(recs []payload) []byte {
	body := struct {
		Records []wireRecord `json:"records"`
	}{Records: make([]wireRecord, len(recs))}
	for i, r := range recs {
		body.Records[i].Fields = r.fields
	}
	b, _ := json.Marshal(body) // plain strings and maps cannot fail to encode
	return b
}

func answersBody(as []answer) []byte {
	body := struct {
		Answers []wireAnswer `json:"answers"`
	}{Answers: make([]wireAnswer, len(as))}
	for i, a := range as {
		body.Answers[i] = wireAnswer{Lo: a.lo, Hi: a.hi, FC: a.fc}
	}
	b, _ := json.Marshal(body) // ints and finite floats cannot fail to encode
	return b
}

// roundTripper sends one request and returns status and body; the two
// HTTP rungs differ only here.
type roundTripper func(method, path string, body []byte) (int, []byte, error)

// apiTarget speaks the acdserve JSON API through a roundTripper.
type apiTarget struct{ do roundTripper }

func (t apiTarget) call(method, path string, body []byte, out any) (int, error) {
	status, resp, err := t.do(method, path, body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d: %.200s", method, path, status, resp)
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return 0, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return len(resp), nil
}

func (t apiTarget) records(recs []payload) ([]int, error) {
	var out wireRecordsResp
	_, err := t.call(http.MethodPost, "/records", recordsBody(recs), &out)
	return out.IDs, err
}

func (t apiTarget) answers(as []answer) (int, int, error) {
	var out wireAnswersResp
	_, err := t.call(http.MethodPost, "/answers", answersBody(as), &out)
	return out.Accepted, out.Known, err
}

func (t apiTarget) resolve() (incremental.ResolveStats, error) {
	var out incremental.ResolveStats
	_, err := t.call(http.MethodPost, "/resolve", nil, &out)
	return out, err
}

func (t apiTarget) clusters() (clustersView, error) {
	var out wireClustersResp
	n, err := t.call(http.MethodGet, "/clusters", nil, &out)
	return clustersView{records: out.Records, clusters: out.Clusters, bytes: n}, err
}

// newHTTPTarget talks to a server over loopback with at most conns
// connections — the generator never holds more than one per client.
func newHTTPTarget(base string, conns int) (apiTarget, func()) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	client := &http.Client{Transport: tr}
	do := func(method, path string, body []byte) (int, []byte, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return 0, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	}
	return apiTarget{do: do}, tr.CloseIdleConnections
}

// memResponse is the http.ResponseWriter of the handler rung.
type memResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) WriteHeader(status int)      { m.status = status }
func (m *memResponse) Write(b []byte) (int, error) { return m.body.Write(b) }

// newHandlerTarget calls an http.Handler directly: the serve layer
// without socket, connection handling or HTTP framing.
func newHandlerTarget(h http.Handler) apiTarget {
	return apiTarget{do: func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		w := &memResponse{header: make(http.Header), status: http.StatusOK}
		h.ServeHTTP(w, req)
		return w.status, w.body.Bytes(), nil
	}}
}

// groupTarget drives a shard.Group the way serve's handlers do.
type groupTarget struct{ g *shard.Group }

func toEngineRecords(recs []payload) []incremental.Record {
	out := make([]incremental.Record, len(recs))
	for i, r := range recs {
		out[i].Fields = r.fields
	}
	return out
}

func (t groupTarget) records(recs []payload) ([]int, error) {
	return t.g.Add(toEngineRecords(recs)...)
}

func (t groupTarget) answers(as []answer) (int, int, error) {
	for _, a := range as {
		if err := t.g.ValidateAnswer(a.lo, a.hi, a.fc); err != nil {
			return 0, 0, err
		}
	}
	for i, a := range as {
		if err := t.g.AddAnswer(a.lo, a.hi, a.fc, ""); err != nil {
			return i, 0, err
		}
	}
	return len(as), t.g.Snapshot().Answers, nil
}

func (t groupTarget) resolve() (incremental.ResolveStats, error) {
	return t.g.Resolve(context.Background())
}

func (t groupTarget) clusters() (clustersView, error) {
	snap := t.g.Snapshot()
	return clustersView{records: snap.Records, clusters: snap.Clusters}, nil
}

// engineTarget drives one journal-less incremental.Engine. Engines are
// single-threaded by contract, so the mutex stands in for the
// serialization every caller above the engine provides.
type engineTarget struct {
	mu sync.Mutex
	e  *incremental.Engine
}

func (t *engineTarget) records(recs []payload) ([]int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.e.Add(toEngineRecords(recs)...)
}

func (t *engineTarget) answers(as []answer) (int, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, a := range as {
		if err := t.e.AddAnswer(a.lo, a.hi, a.fc, ""); err != nil {
			return i, 0, err
		}
	}
	return len(as), t.e.AnswerCount(), nil
}

func (t *engineTarget) resolve() (incremental.ResolveStats, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.e.Resolve(context.Background())
}

func (t *engineTarget) clusters() (clustersView, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return clustersView{records: t.e.Len(), clusters: t.e.Clusters()}, nil
}
