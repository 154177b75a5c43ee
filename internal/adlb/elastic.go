package adlb

import (
	"fmt"

	"repro/internal/mpi"
)

// NotifyCrashed synthesizes a Leave on behalf of a client rank that
// vanished without sending one — the TCP transport's crash-detection
// path. It sends a Get that departs and settles nothing to the rank's
// home server from the dead rank's own Comm, so the server reclaims and
// requeues the rank's leases through the ordinary departure path
// (LeasesReclaimed, retry budgets, targeted retargeting all apply
// unchanged). What the rank finished or never started died with it, so
// every lease it held is charged one attempt.
//
// Unlike Client.Leave it never waits for the response: the dead rank has
// no goroutine to receive it. The transport has already tombstoned the
// rank's route, so the server's stOK reply is swallowed in flight — the
// same fate as any other message addressed to a failed process.
func NotifyCrashed(w *mpi.World, servers, rank int) error {
	l := NewLayout(w.Size(), servers)
	if rank < 0 || rank >= l.Clients() {
		return fmt.Errorf("adlb: NotifyCrashed: rank %d is not a client of world %d with %d server(s)",
			rank, w.Size(), servers)
	}
	c, err := w.Comm(rank)
	if err != nil {
		return err
	}
	e := encoder{c: c}
	e.u8(opGet)
	encodeGet(&e, &getRequest{flags: getFlagDepart})
	return e.send(l.ServerOf(rank), tagRequest)
}
