package scenarios

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"acd/internal/load"
	"acd/internal/obs"
	"acd/internal/serve"
)

// startFollower boots an in-process follower tracking leaderURL. The
// engine knobs must match the leader's (same seed, default pipeline
// parameters) so the standby's replay is the leader's recovery fold.
func startFollower(o Options, name, leaderURL string) (*serve.Local, error) {
	return serve.StartLocal(serve.Config{
		Journal:   filepath.Join(o.Dir, name),
		Follow:    leaderURL + "/replica/stream",
		ReplicaID: name,
		Seed:      o.Seed,
		Obs:       obs.New(),
	})
}

// followerLag reads one follower's total replication lag.
func followerLag(base string) (int64, error) {
	resp, err := http.Get(base + "/replica/status")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Lag int64 `json:"lag"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.Lag, nil
}

// awaitDrained polls until every follower holds the (now quiescent)
// leader's exact record count and reports zero lag. Comparing state
// directly matters: the lag gauge is computed against the leader
// watermark from the follower's *latest fetched batch*, so between
// fetch rounds it can read zero while committed events are still in
// flight. The leader count is re-read every pass — straggler writes
// from the load generator can still land just after the measured
// window closes, and a count captured once would leave the followers
// "ahead" of it forever.
func awaitDrained(timeout time.Duration, leader *serve.Local, followers ...*serve.Local) error {
	deadline := time.Now().Add(timeout)
	for {
		want := leader.Server.Snapshot().Records
		drained := true
		for _, f := range followers {
			lag, err := followerLag(f.URL)
			if err != nil {
				return err
			}
			if lag != 0 || f.Server.Snapshot().Records != want {
				drained = false
				break
			}
		}
		if drained && leader.Server.Snapshot().Records == want {
			return nil
		}
		if time.Now().After(deadline) {
			for i, f := range followers {
				if got := f.Server.Snapshot().Records; got != want {
					return fmt.Errorf("follower %d still at %d records after %v, leader has %d", i+1, got, timeout, want)
				}
			}
			return fmt.Errorf("followers still lagging after %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runReplicaReads measures the replicated read topology: one leader
// takes the writes while two followers absorb every snapshot read
// (GET /clusters and /metrics round-robin). Read latencies are then
// follower-standby latencies, isolated from the leader's write path;
// after the measured window the followers must drain to zero lag and
// hold the leader's exact record count — stale reads are always
// prefix-consistent, never forked.
func runReplicaReads(o Options) (*load.Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	leader, _, err := startServer(o, "replica-reads-leader", "")
	if err != nil {
		return nil, err
	}
	defer leader.Close()
	f1, err := startFollower(o, "replica-reads-f1", leader.URL)
	if err != nil {
		return nil, err
	}
	defer f1.Close()
	f2, err := startFollower(o, "replica-reads-f2", leader.URL)
	if err != nil {
		return nil, err
	}
	defer f2.Close()

	pool, err := o.pool()
	if err != nil {
		return nil, err
	}
	warmup, measure := o.phases()
	cfg := load.Config{
		Target:       leader.URL,
		ReadTargets:  []string{f1.URL, f2.URL},
		Pool:         pool,
		Warmup:       warmup,
		Duration:     measure,
		Seed:         o.Seed,
		Mix:          load.Mix{Records: 8, Answers: 2, Clusters: 70, Metrics: 20},
		Concurrency:  16,
		ResolveEvery: 300 * time.Millisecond,
	}
	if o.Smoke {
		cfg.Concurrency = 8
		cfg.ResolveEvery = 150 * time.Millisecond
	}
	g, err := load.New(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "replica-reads: leader + 2 followers, %d shards, warmup %v, measure %v\n", o.Shards, warmup, measure)
	rep, err := g.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("replica-reads: %w", err)
	}
	if errs := rep.TotalErrors(); errs > 0 {
		return rep, fmt.Errorf("replica-reads: %d request errors during measured window", errs)
	}

	// Writes stopped: both followers must drain, and drained state is
	// the leader's.
	if err := awaitDrained(10*time.Second, leader, f1, f2); err != nil {
		return rep, fmt.Errorf("replica-reads: %w", err)
	}
	want := leader.Server.Snapshot().Records
	rep.Scenario = "replica-reads"
	rep.Shards = o.Shards
	rep.Extra = map[string]float64{
		"leader_records": float64(want),
		"followers":      2,
	}
	return rep, nil
}

// runReplicaFailover is the replication durability drill. A leader
// ingests under load with a follower streaming its journals; at the
// ack target the leader is killed without ceremony and the follower is
// promoted over the dead leader's journal directory. The promoted
// server must uphold the same committed-prefix contract the
// crash-restart scenarios enforce — every record and answer acked
// before the kill is present, nothing was invented or double-applied —
// and must take new writes. The report's Extra carries the acked
// floors, the promoted occupancy, the follower's lag at the moment of
// the kill, and the promotion wall time (the failover cost an operator
// actually pays).
func runReplicaFailover(o Options) (*load.Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	leaderDir := filepath.Join(o.Dir, "replica-failover-leader")
	leader, _, err := startServer(o, "replica-failover-leader", "")
	if err != nil {
		return nil, err
	}
	defer leader.Abort()
	fol, err := startFollower(o, "replica-failover-standby", leader.URL)
	if err != nil {
		return nil, err
	}
	defer fol.Close()

	pool, err := o.pool()
	if err != nil {
		return nil, err
	}
	ackTarget := int64(1500)
	if o.Smoke {
		ackTarget = 150
	}
	g, err := load.New(load.Config{
		Target:      leader.URL,
		ReadTargets: []string{fol.URL},
		Pool:        pool,
		Mix:         load.Mix{Records: 65, Answers: 25, Clusters: 8, Metrics: 2},
		Concurrency: 8,
		Duration:    5 * time.Minute, // canceled once the ack target is hit
		Seed:        o.Seed,
		TrackPairs:  true,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *load.Report, 1)
	runErr := make(chan error, 1)
	go func() {
		rep, err := g.Run(ctx)
		runErr <- err
		done <- rep
	}()
	deadline := time.Now().Add(2 * time.Minute)
	for g.Counters().AckedRecords < ackTarget {
		if time.Now().After(deadline) {
			cancel()
			<-done
			return nil, fmt.Errorf("replica-failover: only %d/%d records acked before deadline",
				g.Counters().AckedRecords, ackTarget)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Floor before the kill, ceiling after: the contract brackets.
	floor := g.Counters()
	cancel()
	if err := <-runErr; err != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("replica-failover: generator: %w", err)
	}
	rep := <-done
	ceiling := g.Counters()
	lagAtKill, err := followerLag(fol.URL)
	if err != nil {
		return nil, fmt.Errorf("replica-failover: reading lag: %w", err)
	}
	fmt.Fprintf(o.Log, "replica-failover: killing leader at %d acked records (%d distinct pairs), follower lag %d\n",
		floor.AckedRecords, floor.DistinctPairs, lagAtKill)
	if err := leader.Abort(); err != nil {
		return nil, fmt.Errorf("replica-failover: killing leader: %w", err)
	}

	// Promote over the dead leader's directory: fence its epoch and
	// replay whatever committed tail the follower had not yet shipped.
	t0 := time.Now()
	code, body, err := httpPostBody(fol.URL+"/replica/promote",
		fmt.Sprintf(`{"source_journal":%q}`, leaderDir))
	if err != nil {
		return nil, fmt.Errorf("replica-failover: promote: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("replica-failover: promote: status %d: %s", code, body)
	}
	promoteDur := time.Since(t0)

	snap := fol.Server.Snapshot()
	fmt.Fprintf(o.Log, "replica-failover: promoted to %d records, %d answers in %v\n",
		snap.Records, snap.Answers, promoteDur.Round(time.Millisecond))
	if int64(snap.Records) < floor.AckedRecords {
		return nil, fmt.Errorf("replica-failover: CONTRACT VIOLATION: %d records acked before the kill, only %d on the promoted leader",
			floor.AckedRecords, snap.Records)
	}
	if int64(snap.Records) > ceiling.IssuedRecords {
		return nil, fmt.Errorf("replica-failover: CONTRACT VIOLATION: promoted leader has %d records but only %d were ever issued",
			snap.Records, ceiling.IssuedRecords)
	}
	if int64(snap.Answers) < floor.DistinctPairs {
		return nil, fmt.Errorf("replica-failover: CONTRACT VIOLATION: %d distinct answer pairs acked before the kill, only %d on the promoted leader",
			floor.DistinctPairs, snap.Answers)
	}
	seen := make(map[int]bool, snap.Records)
	for _, cluster := range snap.Clusters {
		for _, id := range cluster {
			if id < 0 || int64(id) >= ceiling.IssuedRecords {
				return nil, fmt.Errorf("replica-failover: CONTRACT VIOLATION: cluster member %d was never issued (ceiling %d)", id, ceiling.IssuedRecords)
			}
			if seen[id] {
				return nil, fmt.Errorf("replica-failover: CONTRACT VIOLATION: record %d appears in two clusters — event double-applied", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != snap.Records {
		return nil, fmt.Errorf("replica-failover: CONTRACT VIOLATION: clusters cover %d members but %d records promoted", len(seen), snap.Records)
	}
	// The promoted leader must take writes.
	if err := probeRecovered(fol); err != nil {
		return nil, fmt.Errorf("replica-failover: promoted server not functional: %w", err)
	}

	rep.Scenario = "replica-failover"
	rep.Shards = o.Shards
	rep.Extra = map[string]float64{
		"acked_floor_records":  float64(floor.AckedRecords),
		"distinct_pairs_floor": float64(floor.DistinctPairs),
		"promoted_records":     float64(snap.Records),
		"promoted_answers":     float64(snap.Answers),
		"lag_at_kill":          float64(lagAtKill),
		"promote_ms":           float64(promoteDur) / float64(time.Millisecond),
	}
	return rep, nil
}

// httpPostBody issues one POST and returns the status and body.
func httpPostBody(url, body string) (int, string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, string(b), nil
}
