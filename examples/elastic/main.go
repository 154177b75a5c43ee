// Elastic: the paper's §IV ensemble run out-of-process — one hub process
// holding the Turbine engine, the ADLB server, and the data store, with
// worker processes joining over TCP. The run demonstrates the
// distributed-memory failure story end to end: a worker is SIGKILLed
// while it holds a leased task (its lease is reclaimed and the task
// requeued), and the ensemble still completes bit-exact. The hub then
// spawns a replacement worker, but the surviving worker's shares
// usually drain the queue first, so the replacement mostly finds the
// run over and is refused, and does not show a mid-run join; making it
// join while work is queued waits on a deterministic schedule (ROADMAP,
// the schedule explorer). internal/core's
// TestElasticJoinMidRunPicksUpQueuedWork covers the mid-run join.
//
// The binary re-execs itself for the worker role, so one `go run` drives
// a genuine multi-process deployment:
//
//	go run ./examples/elastic
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/stc"
)

// The §IV scatter/compute/gather ensemble: 16 parameters packed into one
// blob, shifted in a single typed R call, squared by 16 parallel Python
// fragments on the workers, aggregated by one final typed call.
// sum((i+1)^2) for i in 0..15 = 1496.
const program = `
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

const heldMarker = "ELASTIC_TASK_HELD"

func main() {
	if addr := os.Getenv("ELASTIC_EXAMPLE_ADDR"); addr != "" {
		runWorker(addr)
		return
	}
	runHub()
}

// runWorker is the re-exec'd role: join the hub and pull tasks. The
// victim variant stalls on its first leaf task and prints a marker once
// the lease is held, so the hub knows when a SIGKILL is mid-task.
func runWorker(addr string) {
	if os.Getenv("ELASTIC_EXAMPLE_VICTIM") != "" {
		faultinject.Arm(faultinject.SiteWorkerTask, faultinject.Plan{
			Hit: 1, Times: 1, Action: faultinject.ActDelay, Delay: 60 * time.Second,
		})
		go func() {
			for faultinject.Hits(faultinject.SiteWorkerTask) == 0 {
				time.Sleep(time.Millisecond)
			}
			fmt.Println(heldMarker)
		}()
	}
	if err := core.ElasticWorker(addr, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

// spawnWorker launches one worker process. When victim is set, the
// returned channel closes once the worker holds a leased task.
func spawnWorker(self, addr string, victim bool) (*exec.Cmd, <-chan struct{}, error) {
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), "ELASTIC_EXAMPLE_ADDR="+addr)
	if victim {
		cmd.Env = append(cmd.Env, "ELASTIC_EXAMPLE_VICTIM=1")
	}
	cmd.Stderr = os.Stderr
	held := make(chan struct{})
	if victim {
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if strings.Contains(sc.Text(), heldMarker) {
					close(held)
					return
				}
			}
		}()
	} else {
		cmd.Stdout = io.Discard
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	return cmd, held, nil
}

func runHub() {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "elastic:", err)
		os.Exit(1)
	}
	compiled, err := stc.Compile(program)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elastic:", err)
		os.Exit(1)
	}

	var victim *exec.Cmd
	res, err := core.ServeElastic(compiled, core.ElasticConfig{
		MinWorkers:  2,
		WorkerSlots: 4,
		Out:         os.Stdout,
		OnListen: func(addr string) {
			fmt.Printf("hub: listening on %s\n", addr)
			v, held, err := spawnWorker(self, addr, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "elastic: spawn victim:", err)
				os.Exit(1)
			}
			victim = v
			if _, _, err := spawnWorker(self, addr, false); err != nil {
				fmt.Fprintln(os.Stderr, "elastic: spawn worker:", err)
				os.Exit(1)
			}
			go func() {
				select {
				case <-held:
				case <-time.After(60 * time.Second):
					fmt.Fprintln(os.Stderr, "elastic: victim never held a task")
					os.Exit(1)
				}
				fmt.Println("hub: victim holds a lease; sending SIGKILL")
				v.Process.Kill()
				v.Wait()
				fmt.Println("hub: spawning replacement worker")
				if _, _, err := spawnWorker(self, addr, false); err != nil {
					fmt.Fprintln(os.Stderr, "elastic: spawn replacement:", err)
					os.Exit(1)
				}
			}()
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "elastic: run failed:", err)
		os.Exit(1)
	}
	_ = victim

	var sum float64
	var n int
	found := false
	for _, line := range strings.Split(res.Stdout, "\n") {
		if _, err := fmt.Sscanf(line, "ensemble: sum((2*p+1)^2) = %f over %d fragments", &sum, &n); err == nil {
			found = true
			break
		}
	}
	switch {
	case !found:
		fmt.Fprintf(os.Stderr, "elastic: ensemble line missing from output:\n%s", res.Stdout)
		os.Exit(1)
	case sum != 1496 || n != 16:
		fmt.Fprintf(os.Stderr, "elastic: got sum=%v over %d fragments, want 1496 over 16\n", sum, n)
		os.Exit(1)
	case res.ADLB.LeasesReclaimed < 1:
		fmt.Fprintf(os.Stderr, "elastic: LeasesReclaimed = %d, want >= 1\n", res.ADLB.LeasesReclaimed)
		os.Exit(1)
	}
	fmt.Printf("hub: ensemble complete: sum=%.0f over %d fragments (leases reclaimed: %d, task retries: %d)\n",
		sum, n, res.ADLB.LeasesReclaimed, res.TaskRetries)
}
