package core

// Out-of-process elastic run matrix: complete runs over TCP workers,
// worker SIGKILL mid-task with lease reclaim (a real OS process killed
// while holding a lease), and join-mid-run picking up queued work. The
// victim worker is a re-exec of this test binary (TestElasticWorkerHelper)
// so the kill is a genuine SIGKILL even under -race.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adlb"
	"repro/internal/faultinject"
	"repro/internal/stc"
)

// elasticEnsemble is the §IV scatter/compute/gather ensemble trimmed to
// its container-bridge core: params scatter into a packed blob, R shifts
// the vector in one typed call, 16 python fragments square the elements
// in parallel on the workers, and the aggregate comes back through one
// final typed call. sum((i+1)^2) for i in 0..15 = 1496.
const elasticEnsemble = `
	float params[];
	foreach i in [0:15] { params[i] = itof(i) * 0.5; }
	blob pv = vpack(params);
	blob shifted = r("y <- argv1 * 2 + 1", "y", pv);
	float ys[] = vunpack(shifted);
	float sq[];
	foreach y, i in ys { sq[i] = python("", "argv1 * argv1", y); }
	float esum = python("", "sum(argv1)", vpack(sq));
	printf("ensemble: sum((2*p+1)^2) = %f over %i fragments", esum, size(sq));
`

func compileEnsemble(t *testing.T) *stc.Output {
	t.Helper()
	compiled, err := stc.Compile(elasticEnsemble)
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

func expectEnsembleOutput(t *testing.T, stdout string) {
	t.Helper()
	var sum float64
	var n int
	found := false
	for _, line := range strings.Split(stdout, "\n") {
		if _, err := fmt.Sscanf(line, "ensemble: sum((2*p+1)^2) = %f over %d fragments", &sum, &n); err == nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("ensemble line missing from output:\n%s", stdout)
	}
	if sum != 1496 || n != 16 {
		t.Fatalf("ensemble computed sum=%v n=%d, want 1496 over 16", sum, n)
	}
}

// TestElasticWorkerHelper is not a test: it is the worker half of the
// SIGKILL matrix, run as a separate OS process via re-exec of this test
// binary. With ELASTIC_HELPER_STALL_MS set it arms an ActDelay on the
// worker-task fault site and prints a marker once the delay is entered —
// At counts the hit before sleeping and GetLeased has already returned,
// so the marker guarantees a lease is held when the parent kills us.
func TestElasticWorkerHelper(t *testing.T) {
	addr := os.Getenv("ELASTIC_HELPER_ADDR")
	if addr == "" {
		t.Skip("helper entry point; only meaningful when re-exec'd with ELASTIC_HELPER_ADDR")
	}
	if ms := os.Getenv("ELASTIC_HELPER_STALL_MS"); ms != "" {
		d, err := strconv.Atoi(ms)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(faultinject.SiteWorkerTask, faultinject.Plan{
			Hit: 1, Times: 1, Action: faultinject.ActDelay,
			Delay: time.Duration(d) * time.Millisecond,
		})
		go func() {
			for faultinject.Hits(faultinject.SiteWorkerTask) == 0 {
				time.Sleep(time.Millisecond)
			}
			fmt.Println("ELASTIC_TASK_HELD")
		}()
	}
	if err := ElasticWorker(addr, os.Stdout); err != nil {
		t.Fatalf("helper worker: %v", err)
	}
}

// startVictim launches a stalling worker as a real OS process and
// reports (via the returned channel) when it holds a leased task.
func startVictim(t *testing.T, addr string) (kill func(), held <-chan struct{}) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestElasticWorkerHelper$")
	cmd.Env = append(os.Environ(),
		"ELASTIC_HELPER_ADDR="+addr,
		"ELASTIC_HELPER_STALL_MS=60000",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ch := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "ELASTIC_TASK_HELD") {
				close(ch)
				return
			}
		}
	}()
	var once sync.Once
	kill = func() {
		once.Do(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	t.Cleanup(kill)
	return kill, ch
}

func TestElasticRunCompletes(t *testing.T) {
	compiled := compileEnsemble(t)
	var wg sync.WaitGroup
	res, err := ServeElastic(compiled, ElasticConfig{
		MinWorkers:  2,
		WorkerSlots: 2,
		OnListen: func(addr string) {
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := ElasticWorker(addr, io.Discard); err != nil {
						t.Errorf("worker: %v", err)
					}
				}()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	expectEnsembleOutput(t, res.Stdout)
	if res.ADLB.LeasesReclaimed != 0 {
		t.Fatalf("clean run reclaimed %d leases", res.ADLB.LeasesReclaimed)
	}
}

func TestElasticWorkerSIGKILLMidTask(t *testing.T) {
	compiled := compileEnsemble(t)
	stats := &adlb.Stats{}
	var wg sync.WaitGroup
	res, err := ServeElastic(compiled, ElasticConfig{
		MinWorkers:  1,
		WorkerSlots: 3,
		Stats:       stats,
		OnListen: func(addr string) {
			// The victim: a real OS process that stalls on its first leaf
			// task, then dies by SIGKILL while the lease is outstanding.
			// It starts the run alone, so it holds a task however fast an
			// in-process worker would drain the queue.
			wg.Add(1)
			go func() {
				defer wg.Done()
				kill, held := startVictim(t, addr)
				select {
				case <-held:
				case <-time.After(60 * time.Second):
					t.Error("victim never held a task")
					return
				}
				// A healthy worker carries the rest of the run, the
				// victim's reclaimed task included.
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := ElasticWorker(addr, io.Discard); err != nil {
						t.Errorf("healthy worker: %v", err)
					}
				}()
				kill()
			}()
		},
	})
	if err != nil {
		t.Fatalf("run did not survive the SIGKILL: %v", err)
	}
	wg.Wait()
	expectEnsembleOutput(t, res.Stdout)
	if res.ADLB.LeasesReclaimed < 1 {
		t.Fatalf("LeasesReclaimed = %d, want >= 1", res.ADLB.LeasesReclaimed)
	}
	if res.TaskRetries < 1 {
		t.Fatalf("TaskRetries = %d, want >= 1 (reclaimed task was not requeued)", res.TaskRetries)
	}
}

func TestElasticJoinMidRunPicksUpQueuedWork(t *testing.T) {
	compiled := compileEnsemble(t)
	stats := &adlb.Stats{}
	var wg sync.WaitGroup
	res, err := ServeElastic(compiled, ElasticConfig{
		MinWorkers:  1,
		WorkerSlots: 3,
		Stats:       stats,
		OnListen: func(addr string) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The only gang-start worker stalls on its first task and
				// is killed; a replacement joins mid-run and must pick up
				// both the queued remainder and the reclaimed task.
				kill, held := startVictim(t, addr)
				select {
				case <-held:
					kill()
				case <-time.After(60 * time.Second):
					t.Error("victim never held a task")
					return
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := ElasticWorker(addr, io.Discard); err != nil {
						t.Errorf("replacement worker: %v", err)
					}
				}()
			}()
		},
	})
	if err != nil {
		t.Fatalf("run did not complete after mid-run join: %v", err)
	}
	wg.Wait()
	expectEnsembleOutput(t, res.Stdout)
	if res.ADLB.LeasesReclaimed < 1 {
		t.Fatalf("LeasesReclaimed = %d, want >= 1", res.ADLB.LeasesReclaimed)
	}
}
