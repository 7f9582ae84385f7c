package market

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"acd/internal/crowd"
	"acd/internal/record"
)

// This file is the CLI surface of the marketplace: a compact fleet-spec
// grammar shared by acddedup, acdserve, and the load scenarios, plus
// the helpers that turn a spec into live backends (noisy simulated
// answer functions, optional ChaosSource/ReliableSource fault
// wrapping).
//
// Grammar: backends are separated by ';', fields by ':'.
//
//	id:centsPerHIT:pairsPerHIT:errorRate[:opt...]
//
// Options: "machine" marks the free machine backend; "lat=DUR" sets
// the median HIT latency; "drop=P", "fault=P" and "spike=P" wrap the
// backend in ChaosSource with that drop / transient-error / 25×-latency
// straggler probability (plus ReliableSource: one retry, then fallback
// to the fault-free answer); "timeout=DUR" overrides the per-question
// retry deadline for a faulty backend (default 8× its latency — tighten
// it to bound how long an outage can stall a question); "workers=N"
// sets votes per answer. The whole spec "default" means
// DefaultFleetSpec.
//
// Examples — the default mixed fleet, and a single slow, faulty
// simulated crowd (error rate 0: answers are the base function's, only
// their delivery degrades):
//
//	fast:1:20:0.12;careful:6:10:0.02:lat=2ms;machine:0:0:0.35:machine
//	sim:2:20:0:lat=500us:spike=0.05:drop=0.05:fault=0.05:timeout=10ms

// DefaultFleetSpec is the reference mixed fleet: a fast cheap noisy
// backend, a slow expensive accurate one, and the free machine
// classifier.
const DefaultFleetSpec = "fast:1:20:0.12;careful:6:10:0.02:lat=2ms;machine:0:0:0.35:machine"

// BackendSpec is one parsed backend description from a fleet spec:
// everything about a Backend except its answer source.
type BackendSpec struct {
	// ID, CentsPerHIT, PairsPerHIT, ErrorRate, Workers, Latency and
	// Machine mirror the Backend fields.
	ID          string
	CentsPerHIT int
	PairsPerHIT int
	ErrorRate   float64
	Workers     int
	Latency     time.Duration
	Machine     bool
	// Drop, Fault and Spike are ChaosSource probabilities for the
	// backend's fault wrapping (all zero = no chaos layer).
	Drop  float64
	Fault float64
	Spike float64
	// Timeout overrides the fault wrapper's per-question retry deadline
	// (zero = 8× the backend's latency).
	Timeout time.Duration
}

// FlagBudget maps a user-facing budget flag or option, where zero or
// negative means "no cap", onto Config.BudgetCents, where zero is a
// real zero and Unlimited lifts the cap.
func FlagBudget(cents int) int {
	if cents > 0 {
		return cents
	}
	return Unlimited
}

// ParseFleet parses a fleet spec (see the grammar above); the keyword
// "default" stands for DefaultFleetSpec. Every backend needs a unique
// non-empty id; probabilities must lie in [0, 1]; prices must be
// non-negative.
func ParseFleet(spec string) ([]BackendSpec, error) {
	if strings.TrimSpace(spec) == "default" {
		spec = DefaultFleetSpec
	}
	var out []BackendSpec
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 4 {
			return nil, fmt.Errorf("market: backend %q: want id:cents:pairs:errRate[:opt...]", part)
		}
		b := BackendSpec{ID: strings.TrimSpace(fields[0])}
		if b.ID == "" {
			return nil, fmt.Errorf("market: backend %q: empty id", part)
		}
		if seen[b.ID] {
			return nil, fmt.Errorf("market: duplicate backend id %q", b.ID)
		}
		seen[b.ID] = true
		var err error
		if b.CentsPerHIT, err = strconv.Atoi(fields[1]); err != nil || b.CentsPerHIT < 0 {
			return nil, fmt.Errorf("market: backend %q: bad centsPerHIT %q", b.ID, fields[1])
		}
		if b.PairsPerHIT, err = strconv.Atoi(fields[2]); err != nil || b.PairsPerHIT < 0 {
			return nil, fmt.Errorf("market: backend %q: bad pairsPerHIT %q", b.ID, fields[2])
		}
		if b.ErrorRate, err = strconv.ParseFloat(fields[3], 64); err != nil || b.ErrorRate < 0 || b.ErrorRate > 1 {
			return nil, fmt.Errorf("market: backend %q: bad errorRate %q", b.ID, fields[3])
		}
		for _, opt := range fields[4:] {
			opt = strings.TrimSpace(opt)
			key, val, hasVal := strings.Cut(opt, "=")
			switch {
			case key == "machine" && !hasVal:
				b.Machine = true
			case key == "lat" && hasVal:
				if b.Latency, err = time.ParseDuration(val); err != nil || b.Latency < 0 {
					return nil, fmt.Errorf("market: backend %q: bad lat %q", b.ID, val)
				}
			case key == "drop" && hasVal:
				if b.Drop, err = strconv.ParseFloat(val, 64); err != nil || b.Drop < 0 || b.Drop > 1 {
					return nil, fmt.Errorf("market: backend %q: bad drop %q", b.ID, val)
				}
			case key == "fault" && hasVal:
				if b.Fault, err = strconv.ParseFloat(val, 64); err != nil || b.Fault < 0 || b.Fault > 1 {
					return nil, fmt.Errorf("market: backend %q: bad fault %q", b.ID, val)
				}
			case key == "spike" && hasVal:
				if b.Spike, err = strconv.ParseFloat(val, 64); err != nil || b.Spike < 0 || b.Spike > 1 {
					return nil, fmt.Errorf("market: backend %q: bad spike %q", b.ID, val)
				}
			case key == "timeout" && hasVal:
				if b.Timeout, err = time.ParseDuration(val); err != nil || b.Timeout <= 0 {
					return nil, fmt.Errorf("market: backend %q: bad timeout %q", b.ID, val)
				}
			case key == "workers" && hasVal:
				if b.Workers, err = strconv.Atoi(val); err != nil || b.Workers < 1 {
					return nil, fmt.Errorf("market: backend %q: bad workers %q", b.ID, val)
				}
			default:
				return nil, fmt.Errorf("market: backend %q: unknown option %q", b.ID, opt)
			}
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("market: empty fleet spec %q", spec)
	}
	return out, nil
}

// skeleton copies the spec's pricing, accuracy, and latency fields into
// a Backend with no answer source yet.
func (s BackendSpec) skeleton() Backend {
	return Backend{
		ID:          s.ID,
		CentsPerHIT: s.CentsPerHIT,
		PairsPerHIT: s.PairsPerHIT,
		ErrorRate:   s.ErrorRate,
		Workers:     s.Workers,
		Latency:     s.Latency,
		Machine:     s.Machine,
	}
}

// wrap applies the spec's fault options (drop/fault/spike) around src:
// the full ChaosSource + ReliableSource stack with fallback as the
// answer of last resort. Machine specs and specs without fault bits
// pass through untouched.
func (s BackendSpec) wrap(src crowd.Source, fallback func(record.Pair) float64, seed int64) crowd.Source {
	if s.Machine || (s.Drop <= 0 && s.Fault <= 0 && s.Spike <= 0) {
		return src
	}
	chaos := crowd.NewChaos(src, crowd.ChaosConfig{
		Seed:        seed,
		BaseLatency: max(s.Latency, 200*time.Microsecond),
		SpikeProb:   s.Spike,
		DropProb:    s.Drop,
		ErrorProb:   s.Fault,
	})
	// Tight deadlines and backoff: these run inside load-scenario
	// resolve handlers on the wall clock, where crowd-scale defaults
	// (a 200ms backoff at a ~10% fault rate adds ~20ms to the average
	// question) would dwarf the latency being simulated and wedge the
	// run.
	timeout := 8 * max(s.Latency, 200*time.Microsecond)
	if s.Timeout > 0 {
		timeout = s.Timeout
	}
	return crowd.NewReliable(chaos, crowd.ReliableConfig{
		Timeout:    timeout,
		Retries:    1,
		Backoff:    timeout / 4,
		MaxBackoff: timeout,
		Seed:       seed,
		Fallback:   fallback,
	})
}

// Backend builds the live Backend for a spec over the given base answer
// function: answers are the base flipped with the spec's error rate,
// and a spec with fault bits (drop/fault/spike) gets the full
// ChaosSource + ReliableSource stack with the base as fallback.
// Machine specs answer directly (no fault wrapping, no charge).
func (s BackendSpec) Backend(base func(record.Pair) float64, seed int64) Backend {
	b := s.skeleton()
	answer := Noisy(base, s.ErrorRate, seed+int64(len(s.ID)))
	setting := crowd.Config{Workers: max(1, s.Workers), PairsPerHIT: max(1, s.PairsPerHIT), CentsPerHIT: s.CentsPerHIT, Seed: seed}
	b.Source = s.wrap(crowd.SourceFunc{Fn: answer, Setting: setting}, answer, seed)
	return b
}

// AnswerBackend builds the live Backend for a spec over simulated
// ground truth: answers come from a crowd.AnswerSet drawn once, with
// the per-worker difficulty chosen so the majority vote's error rate
// matches the spec's advertised ErrorRate (the number routing trusts).
// Machine specs keep a nil source — the marketplace answers them from
// its prior. Fault options wrap the answer set exactly as Backend does.
func (s BackendSpec) AnswerBackend(pairs []record.Pair, truth func(record.Pair) bool, seed int64) Backend {
	b := s.skeleton()
	if s.Machine {
		return b
	}
	workers := s.Workers
	if workers < 1 {
		workers = 3
	} else if workers%2 == 0 {
		workers++
	}
	cfg := crowd.Config{
		Workers:     workers,
		PairsPerHIT: max(1, s.PairsPerHIT),
		CentsPerHIT: s.CentsPerHIT,
		Seed:        seed + int64(len(s.ID)),
	}
	d := perWorkerError(s.ErrorRate, workers)
	answers := crowd.BuildAnswers(pairs, truth, crowd.UniformDifficulty(d), cfg)
	b.Source = s.wrap(answers, answers.Score, seed)
	return b
}

// perWorkerError inverts crowd.MajorityError: the per-worker difficulty
// at which a majority of `workers` votes is wrong with probability
// target. Targets at or beyond a coin flip (or a single worker) need no
// inversion.
func perWorkerError(target float64, workers int) float64 {
	if workers <= 1 || target <= 0 || target >= 0.5 {
		return target
	}
	lo, hi := 0.0, 0.5
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if crowd.MajorityError(mid, workers) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Fleet builds a complete backend fleet from a spec string over one
// shared base answer function — the one-call path from a CLI flag to a
// Config.Backends value.
func Fleet(spec string, base func(record.Pair) float64, seed int64) ([]Backend, error) {
	specs, err := ParseFleet(spec)
	if err != nil {
		return nil, err
	}
	out := make([]Backend, len(specs))
	for i, s := range specs {
		out[i] = s.Backend(base, seed)
	}
	return out, nil
}

// Noisy flips a deterministic answer function's verdict with the given
// probability: a stable per-pair coin decides whether the base answer
// or its complement is returned, simulating a backend with a calibrated
// error rate without needing ground truth.
func Noisy(base func(record.Pair) float64, errRate float64, seed int64) func(record.Pair) float64 {
	if errRate <= 0 {
		return base
	}
	return func(p record.Pair) float64 {
		fc := base(p)
		if hash01(seed, p) < errRate {
			return 1 - fc
		}
		return fc
	}
}

// hash01 maps (seed, pair) to a uniform [0, 1) value, stable across
// runs.
func hash01(seed int64, p record.Pair) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(p.Lo)*0xbf58476d1ce4e5b9 + uint64(p.Hi)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 29
	return float64(h%1_000_000) / 1_000_000
}
