package scenarios

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"acd/internal/journal"
	"acd/internal/load"
	"acd/internal/serve"
)

// runCrashRestart is the durability drill. It ingests under load,
// snapshots the generator's acked counters, copies the live journal
// directory mid-write (the crash image: an arbitrary reachable disk
// state, torn tail included), aborts the server without a checkpoint,
// then recovers a fresh server from the image and checks the
// committed-prefix contract programmatically:
//
//   - every record acked before the copy began is present (ack follows
//     the fsync, so its journal entry is in the copied prefix);
//   - no record beyond what was ever issued appears (nothing invented,
//     nothing double-applied);
//   - the recovered clustering is an exact partition of the recovered
//     records — each id in exactly one cluster;
//   - every distinct answer pair fully acked before the copy is in the
//     recovered answer cache;
//   - the recovered server still serves: it accepts new records and
//     completes a resolve over HTTP.
//
// Any violation is returned as an error (CI runs this under -race and
// gates on it). The report carries the generator's measured window plus
// Extra metrics: the acked floors, the recovered occupancy, and the
// recovery wall time.
func runCrashRestart(o Options) (*load.Report, error) {
	return crashDrill(o, "crash-restart")
}

// runCrashRestartGroupCommit is the same drill with the batched write
// path on: a 2ms commit window (acks pipelined behind group fsyncs)
// and small WAL segments so rotation happens repeatedly while the live
// tree is being copied. The committed-prefix contract is identical —
// an ack is only counted after the group holding its event synced, so
// every acked event must still be in the image.
func runCrashRestartGroupCommit(o Options) (*load.Report, error) {
	o.CommitWindow = 2 * time.Millisecond
	o.RotateBytes = 32 << 10
	return crashDrill(o, "crash-restart-groupcommit")
}

// crashDrill is the shared body of the crash-restart scenarios; name
// labels the report and the scratch directories.
func crashDrill(o Options, name string) (*load.Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	liveDir := filepath.Join(o.Dir, name+"-live")
	imageDir := filepath.Join(o.Dir, name+"-image")
	l, _, err := startServer(o, name+"-live", "")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	pool, err := o.pool()
	if err != nil {
		return nil, err
	}
	ackTarget := int64(1500)
	if o.Smoke {
		ackTarget = 150
	}
	g, err := load.New(load.Config{
		Target:      l.URL,
		Pool:        pool,
		Mix:         load.Mix{Records: 70, Answers: 30},
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

	// Wait for the ingest to pass the target while still running hot.
	deadline := time.Now().Add(2 * time.Minute)
	for g.Counters().AckedRecords < ackTarget {
		if time.Now().After(deadline) {
			cancel()
			<-done
			return nil, fmt.Errorf("%s: only %d/%d records acked before deadline", name,
				g.Counters().AckedRecords, ackTarget)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The floor is read BEFORE the copy begins: each counted ack's
	// journal entry was fsynced before its response, so it is in the
	// image. The ceiling is read AFTER the copy ends: nothing beyond it
	// can appear in the image.
	floor := g.Counters()
	fmt.Fprintf(o.Log, "%s: copying journal at %d acked records, %d acked answers (%d distinct pairs)\n", name,
		floor.AckedRecords, floor.AckedAnswers, floor.DistinctPairs)
	copyStart := time.Now()
	if err := copyCrashImage(liveDir, imageDir); err != nil {
		cancel()
		<-done
		return nil, fmt.Errorf("%s: copying crash image: %w", name, err)
	}
	copyDur := time.Since(copyStart)
	ceiling := g.Counters()

	cancel()
	if err := <-runErr; err != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("%s: generator: %w", name, err)
	}
	rep := <-done
	// Kill the live server with no final checkpoint — its directory is
	// now irrelevant; the image is the machine that "crashed".
	if err := l.Abort(); err != nil {
		return nil, fmt.Errorf("%s: aborting live server: %w", name, err)
	}

	t0 := time.Now()
	l2, err := serve.StartLocal(serve.Config{Journal: imageDir, Seed: o.Seed, Obs: nil})
	if err != nil {
		return nil, fmt.Errorf("%s: recovering crash image: %w", name, err)
	}
	recovery := time.Since(t0)
	defer l2.Close()
	snap := l2.Server.Snapshot()
	fmt.Fprintf(o.Log, "%s: recovered %d records, %d answers in %v\n", name,
		snap.Records, snap.Answers, recovery.Round(time.Millisecond))

	if int64(snap.Records) < floor.AckedRecords {
		return nil, fmt.Errorf("%s: CONTRACT VIOLATION: %d records acked before the crash image, only %d recovered", name,
			floor.AckedRecords, snap.Records)
	}
	if int64(snap.Records) > ceiling.IssuedRecords {
		return nil, fmt.Errorf("%s: CONTRACT VIOLATION: recovered %d records but only %d were ever issued", name,
			snap.Records, ceiling.IssuedRecords)
	}
	if int64(snap.Answers) < floor.DistinctPairs {
		return nil, fmt.Errorf("%s: CONTRACT VIOLATION: %d distinct answer pairs acked before the crash image, only %d in the recovered cache", name,
			floor.DistinctPairs, snap.Answers)
	}
	// Exact partition: every recovered record in exactly one cluster.
	// Sharded acks complete out of order, so the recovered id space can
	// have gaps (id 184 fsynced on its shard before id 150 on a busier
	// one) — the checks are by membership count and issue ceiling, not
	// id density.
	seen := make(map[int]bool, snap.Records)
	for _, cluster := range snap.Clusters {
		for _, id := range cluster {
			if id < 0 || int64(id) >= ceiling.IssuedRecords {
				return nil, fmt.Errorf("%s: CONTRACT VIOLATION: cluster member %d was never issued (ceiling %d)", name, id, ceiling.IssuedRecords)
			}
			if seen[id] {
				return nil, fmt.Errorf("%s: CONTRACT VIOLATION: record %d appears in two clusters — event double-applied", name, id)
			}
			seen[id] = true
		}
	}
	if len(seen) != snap.Records {
		return nil, fmt.Errorf("%s: CONTRACT VIOLATION: clusters cover %d members but %d records recovered", name, len(seen), snap.Records)
	}
	// The recovered server must still serve.
	if err := probeRecovered(l2); err != nil {
		return nil, fmt.Errorf("%s: recovered server not functional: %w", name, err)
	}

	rep.Scenario = name
	rep.Shards = o.Shards
	rep.Extra = map[string]float64{
		"acked_floor_records":  float64(floor.AckedRecords),
		"distinct_pairs_floor": float64(floor.DistinctPairs),
		"recovered_records":    float64(snap.Records),
		"recovered_answers":    float64(snap.Answers),
		"recovery_ms":          float64(recovery) / float64(time.Millisecond),
		"image_copy_ms":        float64(copyDur) / float64(time.Millisecond),
	}
	return rep, nil
}

// probeRecovered pushes one record batch and one resolve through the
// recovered server's HTTP API.
func probeRecovered(l *serve.Local) error {
	body := `{"records":[{"fields":{"text":"post crash probe record"}}]}`
	resp, err := httpPost(l.URL+"/records", body)
	if err != nil {
		return err
	}
	if resp != 200 {
		return fmt.Errorf("POST /records after recovery: status %d", resp)
	}
	if resp, err = httpPost(l.URL+"/resolve", ""); err != nil {
		return err
	}
	if resp != 200 {
		return fmt.Errorf("POST /resolve after recovery: status %d", resp)
	}
	return nil
}

// httpPost issues one POST with a JSON body and returns the status.
func httpPost(url, body string) (int, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain before close
	return resp.StatusCode, nil
}

// copyCrashImage copies a live journal tree into a crash image. A
// concurrent copy captures each file at a different instant, so file
// order matters for cross-file dependencies: a cross-shard answer in
// the router journal refers to records in two shard journals. Records
// are always acked (shard-journal fsynced) before any answer naming
// them is even issued, so copying the router journal FIRST guarantees
// every captured answer's records land in the later shard copies —
// every image this produces is a reachable crash state. (Same-shard
// answers share a file with their records, so prefix order already
// protects them; this workload issues no resolves, the other
// cross-journal event class.)
func copyCrashImage(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	routerSrc := filepath.Join(src, journal.RouterDir)
	if _, err := os.Stat(routerSrc); err == nil {
		if err := copyTree(routerSrc, filepath.Join(dst, journal.RouterDir)); err != nil {
			return err
		}
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Name() == journal.RouterDir {
			continue // already copied, must not be refreshed
		}
		if err := copyTree(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// copyTree copies a file or directory tree, tolerating files that grow
// during the walk — the copy of each file is some prefix of its
// eventual content, which is exactly what a hard kill leaves of an
// append-only fsynced log.
//
// Within each directory the files are copied in REVERSE lexical order.
// WAL segment names sort by starting sequence, so with rotation on the
// writer appends to the lexically last segment and may open a newer one
// mid-copy. Copying oldest-first could capture a prefix of the old tail
// segment, then — after a rotation — the full new segment: a sequence
// gap no crash can produce. Newest-first, every older segment the
// writer has moved past is already complete, so each image is an intact
// prefix of the event sequence. (Compaction, the one thing that mutates
// old segments, is off in these drills: CheckpointEvery is unset.)
func copyTree(src, dst string) error {
	info, err := os.Stat(src)
	if err != nil {
		return err
	}
	if !info.IsDir() {
		return copyFile(src, dst)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for i := len(ents) - 1; i >= 0; i-- {
		e := ents[i]
		if err := copyTree(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// copyFile copies one file; the result is a point-in-time prefix of a
// concurrently growing source.
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
