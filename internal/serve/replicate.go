package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"acd/internal/journal"
	"acd/internal/obs"
	"acd/internal/replica"
	"acd/internal/shard"
)

// LagHeader is the response header followers attach to stale-ok reads
// (GET /clusters, /healthz, /metrics): the number of committed leader
// events not yet folded into the standby the response was served from.
// 0 means the read is as fresh as the leader's last durable write at
// fetch time; the value can only ever under-state freshness.
const LagHeader = "X-Replication-Lag"

// followWait is the server-side long-poll wait followers request per
// fetch: long enough that an idle link costs one open request at a
// time, short enough that lag and epoch telemetry stay current.
const followWait = time.Second

// openFollower builds a Server in follower mode: it mirrors the
// leader's journals locally (durably under cfg.Journal, or in memory
// when empty), seeds the warm standby, and starts the replication run
// loop. The returned server refuses writes until promoted.
func openFollower(cfg Config, rec *obs.Recorder, scfg shard.Config) (*Server, error) {
	var tree journal.Tree
	if cfg.Journal != "" {
		t, err := journal.NewDirTree(cfg.Journal)
		if err != nil {
			return nil, err
		}
		tree = t
	} else {
		tree = journal.NewMemTree()
	}
	src := cfg.ReplicaSource
	if src == nil {
		src = &replica.HTTPSource{Base: cfg.Follow}
	}
	fol, err := replica.NewFollower(context.Background(), replica.Config{
		Shard:  scfg,
		Tree:   tree,
		Source: src,
		Wait:   followWait,
	})
	if err != nil {
		return nil, fmt.Errorf("following %s: %w", cfg.Follow, err)
	}
	snap := fol.Standby().Snapshot()
	s := &Server{
		rec: rec, cfg: cfg, follower: fol,
		Recovered: RecoveryInfo{
			FromJournal: cfg.Journal != "",
			Records:     snap.Records,
			Round:       snap.Round,
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.runStop = cancel
	s.runDone = make(chan struct{})
	go func() {
		defer close(s.runDone)
		err := fol.Run(ctx)
		s.mu.Lock()
		s.runErr = err
		s.mu.Unlock()
	}()
	return s, nil
}

// writable returns the leader group for a write handler, or answers 503
// and returns false when this server is a read-only follower.
func (s *Server) writable(w http.ResponseWriter) (*shard.Group, bool) {
	g, _ := s.state()
	if g == nil {
		writeError(w, http.StatusServiceUnavailable, "read-only follower: send writes to the leader (or POST /replica/promote)")
		return nil, false
	}
	return g, true
}

// readSnapshot returns the snapshot a stale-ok read serves — the
// group's when leading, the standby's (plus the lag header) when
// following.
func (s *Server) readSnapshot(w http.ResponseWriter) *shard.Snapshot {
	g, f := s.state()
	if f != nil {
		w.Header().Set(LagHeader, strconv.FormatInt(f.Lag(), 10))
		return f.Standby().Snapshot()
	}
	return g.Snapshot()
}

// handleReplicaStream serves the leader's journal tails to followers
// (see replica.Handler). Followers and volatile leaders answer 503:
// neither has a committed stream to ship.
func (s *Server) handleReplicaStream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	src := s.src
	s.mu.Unlock()
	if src == nil {
		writeError(w, http.StatusServiceUnavailable, "no replication stream here: followers and journal-less servers do not ship journals")
		return
	}
	(&replica.Handler{Source: src}).ServeHTTP(w, r)
}

// handleReplicaStatus reports the server's replication role: mode,
// epoch, and — for followers — per-journal positions and total lag.
func (s *Server) handleReplicaStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	g, f, src, runErr := s.group, s.follower, s.src, s.runErr
	s.mu.Unlock()
	resp := map[string]any{"replica_id": s.cfg.ReplicaID}
	if f != nil {
		st := f.Status()
		resp["mode"] = "follower"
		resp["epoch"] = st.Epoch
		resp["lag"] = st.Lag
		resp["journals"] = st.Journals
		if runErr != nil {
			resp["error"] = runErr.Error()
		}
	} else {
		resp["mode"] = "leader"
		resp["epoch"] = g.Epoch()
		resp["shards"] = g.Shards()
		resp["streaming"] = src != nil
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReplicaPromote turns a follower into the leader. The optional
// body {"source_journal": DIR} names the deposed leader's journal
// directory (on shared or recovered storage): promotion then fences its
// epoch on disk and replays whatever committed tail it still holds, so
// no acknowledged write is lost. Without it the follower's own mirror
// is the new history. Leaders answer 409.
func (s *Server) handleReplicaPromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var body struct {
		SourceJournal string `json:"source_journal"`
	}
	// An empty body means "promote from my own mirror"; only a
	// present-but-malformed one is an error.
	if r.Body != nil && !decodeBody(w, r, &body, true) {
		return
	}
	s.mu.Lock()
	f := s.follower
	s.mu.Unlock()
	if f == nil {
		writeError(w, http.StatusConflict, "already the leader")
		return
	}
	// Stop pulling before the swap: Promote refuses a closed follower,
	// so a racing second promote fails cleanly below.
	s.stopRun()
	var old journal.Tree
	if body.SourceJournal != "" {
		t, err := journal.NewDirTree(body.SourceJournal)
		if err != nil {
			writeError(w, http.StatusBadRequest, "source_journal: "+err.Error())
			return
		}
		old = t
	}
	g, err := f.Promote(old)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "promote: "+err.Error())
		return
	}
	s.mu.Lock()
	s.group = g
	s.follower = nil
	s.runErr = nil
	s.src, _ = replica.NewLocalSource(g)
	s.mu.Unlock()
	snap := g.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":    "leader",
		"epoch":   g.Epoch(),
		"records": snap.Records,
		"round":   snap.Round,
	})
}
