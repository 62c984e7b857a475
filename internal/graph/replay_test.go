package graph_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"spd3/internal/detect"
	_ "spd3/internal/detectors"
	"spd3/internal/fasttrack"
	"spd3/internal/graph"
	"spd3/internal/progen"
	"spd3/internal/task"
	"spd3/internal/trace"
	"spd3/internal/trace/tracetest"
)

// TestOracleReplaysParallelRecordings: the oracle is owned, so the runtime
// runs it only on the sequential executor, but it does not need
// depth-first order, so replay feeds it a recording of any run. Over
// progen programs with locks, a Pool-4 run of FastTrack is recorded
// (tracetest) and replayed straight into graph.New(), whose verdict must
// be FastTrack's: the lock order is the run's, and FastTrack is precise
// for the happens-before of the run it observed. A sequential run of the
// oracle itself, recorded, replays to the verdict the oracle reached live.
// The registry still lists espbags as its one sequential detector.
func TestOracleReplaysParallelRecordings(t *testing.T) {
	if _, err := task.New(task.Config{Executor: task.Pool, Workers: 4, Detector: graph.New()}); !errors.Is(err, task.ErrExecutorMismatch) {
		t.Fatalf("oracle under an explicit pool: err = %v, want ErrExecutorMismatch", err)
	}
	if rt, err := task.New(task.Config{Detector: graph.New()}); err != nil || rt.Executor() != task.Sequential {
		t.Fatalf("oracle under Auto: %v, %v; want the sequential executor", rt, err)
	}
	want := []detect.Description{{Name: "eraser"}, {Name: "espbags", Sequential: true}, {Name: "fasttrack"}, {Name: "none"}, {Name: "spd3"}}
	if got := detect.Describe(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Describe() = %+v, want %+v", got, want)
	}

	replayed := func(data []byte) bool {
		o := graph.New()
		if err := trace.Replay(bytes.NewReader(data), o); err != nil {
			t.Fatal(err)
		}
		return o.HasRace()
	}
	verdicts := map[bool]int{}
	for seed := int64(0); seed < 100; seed++ {
		p := progen.Generate(seed, progen.Config{Locks: 2})

		sink := detect.NewSink(false, 0)
		ft := tracetest.Wrap(fasttrack.New(sink, nil), false)
		rt, err := task.New(task.Config{Executor: task.Pool, Workers: 4, Detector: ft})
		if err != nil {
			t.Fatal(err)
		}
		if err := progen.Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := replayed(ft.Trace()), !sink.Empty(); got != want {
			t.Fatalf("seed %d pool-4: oracle replay %v, fasttrack %v\n%s", seed, got, want, p)
		}

		live := graph.New()
		o := tracetest.Wrap(live, true)
		if rt, err = task.New(task.Config{Detector: o}); err != nil {
			t.Fatal(err)
		}
		if err := progen.Run(rt, p, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := replayed(o.Trace()), live.HasRace(); got != want {
			t.Fatalf("seed %d sequential: oracle replay %v, live %v\n%s", seed, got, want, p)
		}
		verdicts[live.HasRace()]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v: the corpus needs racy and race-free programs", verdicts)
	}
}
