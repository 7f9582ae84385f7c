// Package serve is the embeddable HTTP front-end over the sharded
// incremental dedup engine (a shard.Group when leading, a
// replica.Follower's shard.Standby when following — the same folded
// state either way) — the engine-and-handlers core of the
// acdserve command, extracted so the acdload workload generator and its
// scenario suite can run real servers in-process (loopback smoke tests,
// crash-image drills) without shelling out to a binary. cmd/acdserve is
// a thin flags-and-lifecycle wrapper around this package; the HTTP API
// the two expose is identical and documented in docs/serving.md.
//
// Resolve questions go to Config.Source, else to the marketplace
// Config.Fleet describes (a one-backend fleet is a simulated crowd), else
// to machine similarity scores.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"acd/internal/crowd"
	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/obs"
	"acd/internal/replica"
	"acd/internal/shard"
)

// Config assembles a server: engine knobs plus durability and crowd
// wiring. The zero value is a volatile 1-shard server with default
// pipeline parameters.
type Config struct {
	// Journal is the durable-state directory; empty means volatile
	// (in-memory only).
	Journal string
	// Shards is the shard count (0 = what the journal has, or 1; an
	// existing journal pins its count and refuses to change it).
	Shards int
	// Tau is the candidate threshold for the incremental blocking
	// index; TauSet marks an explicit zero.
	Tau    float64
	TauSet bool
	// Epsilon is PC-Pivot's wasted-pair budget (0 = default).
	Epsilon float64
	// RefineX is PC-Refine's budget divisor (0 = default).
	RefineX int
	// Seed derives the per-round resolve permutations.
	Seed int64
	// CheckpointEvery is the journal-event cadence of automatic
	// compacted checkpoints (0 disables).
	CheckpointEvery int
	// CommitWindow is the journal group-commit window. 0 is one commit
	// per request per journal; D > 0 additionally holds a commit group
	// open up to D so concurrent requests share its single fsync (a
	// lone request waits it out). Acks are pipelined either way.
	CommitWindow time.Duration
	// CommitEvents closes a commit group early at this many events
	// (0 = journal.DefaultMaxEvents).
	CommitEvents int
	// CommitBytes closes a commit group early at this many WAL bytes
	// (0 = journal.DefaultMaxBytes).
	CommitBytes int64
	// RotateBytes rotates each live WAL segment past this size;
	// 0 disables rotation.
	RotateBytes int64
	// Obs receives engine and crowd metrics and backs GET /metrics.
	// Nil records nothing (the endpoint then serves an empty snapshot
	// from a fresh recorder).
	Obs *obs.Recorder
	// Source answers residual crowd questions during /resolve. Nil
	// falls back to Fleet, then to machine similarity scores.
	Source crowd.Source
	// Fleet is a marketplace fleet spec (internal/market.ParseFleet
	// grammar: "id:centsPerHIT:pairsPerHIT:errorRate[:opt...]" entries
	// joined by ';', or "default"). When non-empty and Source is nil,
	// residual resolve questions route through a budget-aware
	// marketplace over the specified backends, each answering from the
	// deterministic pseudo-crowd PairScore(Seed); faulty backends
	// ("spike=", "drop=", "fault=" options) go through the chaos and
	// retry machinery on the wall clock. A one-backend fleet such as
	// "sim:2:20:0:lat=500us:spike=0.05:drop=0.05:fault=0.05:timeout=10ms"
	// is the simulated degraded crowd of the load scenarios. Per-backend
	// spend, latency, and accuracy land in the Obs recorder's market/*
	// and crowd/backend/* metrics.
	Fleet string
	// FleetBudget caps total marketplace spend in cents; 0 or negative
	// means unlimited. Once exhausted, questions fall back to the
	// cheapest machine backend (or the machine score prior).
	FleetBudget int
	// Follow is a leader's replication stream URL (its
	// GET /replica/stream endpoint). Non-empty starts the server as a
	// read-only follower: it mirrors the leader's journals into Journal
	// (or memory when Journal is empty), serves stale-ok reads from a
	// warm standby, and refuses writes until POST /replica/promote.
	Follow string
	// ReplicaID names this process in GET /replica/status (optional).
	ReplicaID string
	// ReplicaSource overrides the follower's leader link — tests and
	// scenarios inject an in-process or chaos-wrapped source. Nil uses
	// HTTP long-polling against Follow. Setting it implies follower
	// mode even when Follow is empty.
	ReplicaSource replica.Source
}

// DefaultRotateBytes is the WAL segment rotation size acdserve
// defaults to (4 MiB): large enough that rotation cost (segment close +
// create + directory fsync) stays far off the append hot path even at
// full group-commit throughput, small enough that checkpoint
// compaction reclaims disk promptly. See BENCH_8.json for the
// group-commit measurements behind it.
const DefaultRotateBytes = 4 << 20

// Server owns either a shard group (leader) or a replication follower
// and serves the acdserve HTTP API over it. The group is internally
// synchronized — writes route through per-shard queues and reads load
// an immutable snapshot pointer — so on the hot paths Server adds no
// locking of its own; the mutex only guards the leader/follower role,
// which changes exactly once (at promotion).
type Server struct {
	rec *obs.Recorder
	cfg Config
	// Recovered describes what Open replayed from the journal (zero
	// struct for a fresh or volatile server).
	Recovered RecoveryInfo

	mu       sync.Mutex
	group    *shard.Group      // non-nil when leading
	follower *replica.Follower // non-nil when following
	src      *replica.LocalSource
	runStop  context.CancelFunc
	runDone  chan struct{}
	runErr   error // fatal replication error that stopped the run loop
}

// RecoveryInfo summarizes a journal recovery at Open time.
type RecoveryInfo struct {
	// FromJournal is true when state was recovered from a journal
	// directory (even an empty one).
	FromJournal bool
	// Records and Round are the recovered snapshot's occupancy.
	Records int
	Round   int
}

// Open builds the shard group — recovering from cfg.Journal when one is
// configured — and returns a Server ready to serve. Journal recovery
// errors (including a shard-count mismatch with a pinned layout) are
// returned wrapped with "recovering journal:".
func Open(cfg Config) (*Server, error) {
	rec := cfg.Obs
	if rec == nil {
		rec = obs.New()
	}
	if cfg.Source == nil && cfg.Fleet != "" {
		src, err := marketSource(cfg.Fleet, cfg.FleetBudget, cfg.Seed, rec)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		cfg.Source = src
	}
	scfg := shard.Config{
		Shards: cfg.Shards,
		Engine: incremental.Config{
			Tau: cfg.Tau, TauSet: cfg.TauSet,
			Epsilon: cfg.Epsilon, RefineX: cfg.RefineX,
			Seed: cfg.Seed, Obs: cfg.Obs,
			Source:          cfg.Source,
			CheckpointEvery: cfg.CheckpointEvery,
			Commit: journal.GroupPolicy{
				Window:    cfg.CommitWindow,
				MaxEvents: cfg.CommitEvents,
				MaxBytes:  cfg.CommitBytes,
			},
			RotateBytes: cfg.RotateBytes,
		},
	}
	if cfg.Follow != "" || cfg.ReplicaSource != nil {
		return openFollower(cfg, rec, scfg)
	}
	var group *shard.Group
	if cfg.Journal != "" {
		tree, err := journal.NewDirTree(cfg.Journal)
		if err != nil {
			return nil, err
		}
		group, err = shard.Open(scfg, tree)
		if err != nil {
			return nil, fmt.Errorf("recovering journal: %w", err)
		}
		snap := group.Snapshot()
		s := &Server{group: group, rec: rec, cfg: cfg, Recovered: RecoveryInfo{
			FromJournal: true, Records: snap.Records, Round: snap.Round,
		}}
		// Volatile groups have nothing to ship; journaled leaders always do.
		s.src, _ = replica.NewLocalSource(group)
		return s, nil
	}
	group, err := shard.New(scfg)
	if err != nil {
		return nil, err
	}
	return &Server{group: group, rec: rec, cfg: cfg}, nil
}

// state returns the server's current role under the mutex: exactly one
// of group/follower is non-nil.
func (s *Server) state() (*shard.Group, *replica.Follower) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.group, s.follower
}

// Group exposes the underlying shard group (tests and scenarios); nil
// while following.
func (s *Server) Group() *shard.Group {
	g, _ := s.state()
	return g
}

// Follower exposes the replication follower; nil when leading.
func (s *Server) Follower() *replica.Follower {
	_, f := s.state()
	return f
}

// Shards returns the group's shard count.
func (s *Server) Shards() int {
	g, f := s.state()
	if f != nil {
		return f.Shards()
	}
	return g.Shards()
}

// Snapshot returns the current immutable snapshot — the group's when
// leading, the warm standby's when following.
func (s *Server) Snapshot() *shard.Snapshot {
	g, f := s.state()
	if f != nil {
		return f.Standby().Snapshot()
	}
	return g.Snapshot()
}

// Checkpoint writes a compacted checkpoint in every journal. Followers
// no-op: their journals must stay a verbatim copy of the shipped
// stream, and compaction is the leader's call (shipped checkpoints
// install here on their own).
func (s *Server) Checkpoint() error {
	g, f := s.state()
	if f != nil {
		return nil
	}
	return g.Checkpoint()
}

// Close stops replication (when following) and releases the group or
// follower journals (without checkpointing; call Checkpoint first for a
// compact next start).
func (s *Server) Close() error {
	s.stopRun()
	g, f := s.state()
	if f != nil {
		return f.Close()
	}
	return g.Close()
}

// stopRun cancels the follower run loop and waits it out. Safe to call
// in any role, any number of times.
func (s *Server) stopRun() {
	s.mu.Lock()
	stop, done := s.runStop, s.runDone
	s.runStop = nil
	s.mu.Unlock()
	if stop != nil {
		stop()
		<-done
	}
}

// Endpoints lists every HTTP route the Handler serves, in display
// order. docs/serving.md must document each of these; a parity test
// enforces it.
func Endpoints() []string {
	return []string{
		"POST /records",
		"POST /answers",
		"POST /resolve",
		"GET /clusters",
		"GET /healthz",
		"GET /metrics",
		"GET /replica/stream",
		"GET /replica/status",
		"POST /replica/promote",
	}
}

// Handler returns the acdserve HTTP API over this server's group:
//
//	POST /records  {"records":[{"fields":{...},"entity":"l"}]} -> {"ids":[...]}
//	POST /answers  {"answers":[{"lo":0,"hi":1,"fc":0.9,"source":"s"}]} -> {"accepted":n}
//	POST /resolve  -> incremental.ResolveStats (runs one resolve pass)
//	GET  /clusters -> {"round":r,"resolved_up_to":n,"clusters":[[...]]}
//	GET  /healthz  -> {"status":"ok","records":n,"round":r}
//	GET  /metrics  -> observability snapshot (JSON)
//
// GET /clusters and GET /healthz are served from an immutable snapshot
// behind an atomic pointer: reads never take a write lock and return
// immediately even while a resolve pass or an ingest burst is running.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/records", s.handleRecords)
	mux.HandleFunc("/answers", s.handleAnswers)
	mux.HandleFunc("/resolve", s.handleResolve)
	mux.HandleFunc("/clusters", s.handleClusters)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/replica/stream", s.handleReplicaStream)
	mux.HandleFunc("/replica/status", s.handleReplicaStatus)
	mux.HandleFunc("/replica/promote", s.handleReplicaPromote)
	return mux
}

// recordPayload is one record in a POST /records body.
type recordPayload struct {
	Fields map[string]string `json:"fields"`
	Entity string            `json:"entity,omitempty"`
}

// answerPayload is one crowd answer in a POST /answers body.
type answerPayload struct {
	Lo     int     `json:"lo"`
	Hi     int     `json:"hi"`
	FC     float64 `json:"fc"`
	Source string  `json:"source,omitempty"`
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var body struct {
		Records []recordPayload `json:"records"`
	}
	if !decodeBody(w, r, &body, false) {
		return
	}
	if len(body.Records) == 0 {
		writeError(w, http.StatusBadRequest, "no records")
		return
	}
	g, ok := s.writable(w)
	if !ok {
		return
	}
	recs := make([]incremental.Record, len(body.Records))
	for i, p := range body.Records {
		recs[i] = incremental.Record{Fields: p.Fields, Entity: p.Entity}
	}
	ids, err := g.Add(recs...)
	if err != nil {
		// A mid-batch journal failure leaves a durable prefix applied;
		// tell the client exactly which records made it in.
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error": err.Error(), "committed_ids": ids,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ids": ids, "pending_pairs": g.Snapshot().PendingPairs})
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var body struct {
		Answers []answerPayload `json:"answers"`
	}
	if !decodeBody(w, r, &body, false) {
		return
	}
	g, ok := s.writable(w)
	if !ok {
		return
	}
	batch := make([]shard.Answer, len(body.Answers))
	for i, a := range body.Answers {
		batch[i] = shard.Answer{Lo: a.Lo, Hi: a.Hi, FC: a.FC, Source: a.Source}
	}
	// The request is the commit unit: the group validates the whole
	// batch before applying any of it (a 400 means nothing was applied)
	// and commits each journal the batch touches once.
	accepted, err := g.AddAnswers(batch)
	var invalid shard.InvalidAnswerError
	if errors.As(err, &invalid) {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err != nil {
		// Validation passed, so this is a journal failure; `accepted`
		// answers are durable all the same.
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error": err.Error(), "committed": accepted,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": accepted, "known": g.Snapshot().Answers})
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	g, ok := s.writable(w)
	if !ok {
		return
	}
	st, err := g.Resolve(r.Context())
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusRequestTimeout
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := s.readSnapshot(w)
	writeJSON(w, http.StatusOK, map[string]any{
		"round":          snap.Round,
		"resolved_up_to": snap.ResolvedUpTo,
		"records":        snap.Records,
		"shards":         snap.Shards,
		"clusters":       snap.Clusters,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, f := s.state()
	status := "ok"
	if f != nil {
		status = "following"
	}
	snap := s.readSnapshot(w)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"records": snap.Records,
		"round":   snap.Round,
		"pending": snap.PendingPairs,
		"shards":  snap.Shards,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if _, f := s.state(); f != nil {
		w.Header().Set(LagHeader, strconv.FormatInt(f.Lag(), 10))
	}
	s.rec.ServeHTTP(w, r)
}

// MaxBodyBytes bounds a POST body. A request is the journal's commit
// unit, so its size is bounded at the edge; a larger batch is the
// client's to split.
const MaxBodyBytes = 8 << 20

// decodeBody decodes a POST body of at most MaxBodyBytes into v and
// reports whether it did; if not it has answered the request — 413 for
// an oversized body, 400 for malformed JSON. emptyOK accepts no body at
// all, leaving v untouched.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, emptyOK bool) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil, emptyOK && errors.Is(err, io.EOF):
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes: split the batch", MaxBodyBytes))
	default:
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	}
	return false
}

// writeJSON writes v as the JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck — response is best-effort past this point
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
