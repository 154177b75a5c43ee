package adlb

import "repro/internal/mpi"

// ServeCountingOpen is Serve, for tests outside the package: it returns,
// beside the run's error, the server's running count of open data at its
// drain and what a full scan of its store finds.
func ServeCountingOpen(c *mpi.Comm, cfg Config) (counted, scanned int, err error) {
	s := newServer(c, cfg, NewLayout(c.Size(), cfg.Servers))
	err = s.run()
	return s.open, unfilledScan(s), err
}
