package adlb

// How a run ends: the servers leave their loops at the drain, with no
// idle wait between, and their stall diagnostics meet at the master.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestRunEndsAtItsDrain: five clients that each do one Get end the run
// as soon as termination is detected. With the watchdog off no server
// deadline is armed at the drain, so a server that waited for one more
// message before returning would hold the run until the test's limit.
func TestRunEndsAtItsDrain(t *testing.T) {
	for servers := 1; servers <= 2; servers++ {
		t.Run(fmt.Sprintf("servers=%d", servers), func(t *testing.T) {
			cfg := Config{Servers: servers, Types: 2, WatchdogIdle: -1}
			w, err := mpi.NewWorld(5 + servers)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(c *mpi.Comm) error {
					if NewLayout(c.Size(), servers).IsServer(c.Rank()) {
						return Serve(c, cfg)
					}
					cl, err := NewClient(c, cfg)
					if err != nil {
						return err
					}
					if p, ok, err := cl.Get(typeWork); err != nil || ok {
						return fmt.Errorf("rank %d: Get = %q, %v, %v; want NO_MORE_WORK", c.Rank(), p, ok, err)
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				w.Abort(fmt.Errorf("test: run did not end"))
				<-done
				t.Fatal("the run did not end within 2s of its drain")
			}
		})
	}
}

// TestStallReportNamesEveryServersRules: a rule held on each of two
// servers when the run drains fails the run with one error, from the
// master, naming both servers' stalled rules in server order. Every
// client still gets its NO_MORE_WORK: the error aborts the world only
// after each server has answered its clients.
func TestStallReportNamesEveryServersRules(t *testing.T) {
	cfg := testConfig(2)
	var gets [2]error
	snap, err := runWorldCfg(t, 4, cfg, func(cl *Client) error {
		if cl.Rank() == 0 {
			for owner := 0; owner < 2; owner++ {
				id, err := heldDatum(cl, 0, owner, false)
				if err != nil {
					return err
				}
				if err := probe(cl, id); err != nil {
					return err
				}
			}
		}
		p, ok, err := cl.Get(typeWork)
		if err == nil && ok {
			err = fmt.Errorf("delivered %q", p)
		}
		gets[cl.Rank()] = err
		return nil
	})
	on0, on1 := int64(heldBase), int64(heldBase+1)
	for _, want := range []string{
		fmt.Sprintf("adlb: server 0: run terminated with 1 dataflow rule(s) stalled on 1 unfilled TD(s) [%d]; stalled rules: [\"probe %d\"]", on0, on0),
		fmt.Sprintf("; adlb: server 1: run terminated with 1 dataflow rule(s) stalled on 1 unfilled TD(s) [%d]; stalled rules: [\"probe %d\"]", on1, on1),
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to contain %q", err, want)
		}
	}
	for rank, err := range gets {
		if err != nil {
			t.Errorf("client %d: Get = %v, want NO_MORE_WORK", rank, err)
		}
	}
	if snap.UnfilledTDs != 2 {
		t.Fatalf("UnfilledTDs = %d, want 2", snap.UnfilledTDs)
	}
}
