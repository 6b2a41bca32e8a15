package homeo_test

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/homeo"
	"repro/homeo/wire"
	"repro/internal/lang"
	"repro/internal/wal"
)

// TestWALRecoverRoundTrip: run a simulated cluster with a write-ahead
// log, tear it down, and boot an identically configured cluster over the
// same log directory. Recovery — deterministic reboot plus WAL replay —
// must reproduce the commit log and every site's store partition exactly,
// including state installed by synchronization rounds and the treaty
// generations they distributed.
func TestWALRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*homeo.Cluster, *homeo.TxnClass) {
		t.Helper()
		c, err := homeo.New(homeo.Options{
			Runtime:   homeo.RuntimeSim,
			Sites:     2,
			Seed:      7,
			EnableLog: true,
			WAL:       homeo.WALOptions{Dir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		cls, err := c.Register(homeo.ClassSpec{
			L:       withdrawSrc,
			Bounds:  map[string][2]int64{"n": {1, 3}},
			Initial: map[string]int64{"bal": 60},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, cls
	}

	c1, cls := mk()
	if n, err := c1.Recover(); err != nil || n != 0 {
		t.Fatalf("fresh recover = (%d, %v), want (0, nil)", n, err)
	}
	ctx := context.Background()
	sess := c1.Session()
	for i := 0; i < 80; i++ {
		if _, err := sess.Submit(ctx, cls, int64(1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c1.Stats(); st.Synced == 0 {
		t.Fatal("no submission ever synced; the test must cover install and treaty records")
	}
	wantLog := c1.WireLog()
	wantDB := make([]lang.Database, c1.Sites())
	for k := range wantDB {
		wantDB[k] = c1.System().PartitionDB(k)
	}
	c1.Close() // flushes and closes the WAL

	c2, _ := mk()
	n, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recovery replayed nothing")
	}
	defer c2.Close()
	if got := c2.Stats().RecoveredWALRecords; got != int64(n) {
		t.Fatalf("stats report %d recovered records, Recover returned %d", got, n)
	}
	gotLog := c2.WireLog()
	if len(gotLog) != len(wantLog) {
		t.Fatalf("recovered commit log has %d entries, want %d", len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if !reflect.DeepEqual(gotLog[i], wantLog[i]) {
			t.Fatalf("recovered log entry %d = %+v, want %+v", i, gotLog[i], wantLog[i])
		}
	}
	for k := range wantDB {
		if got := c2.System().PartitionDB(k); !reflect.DeepEqual(got, wantDB[k]) {
			t.Fatalf("site %d partition diverged after recovery:\n got %v\nwant %v", k, got, wantDB[k])
		}
	}

	// The recovered incarnation keeps serving: fresh submissions commit
	// and extend the recovered log.
	if res, err := c2.Session().Submit(ctx, c2.Class("Withdraw"), 1); err != nil || !res.Committed {
		t.Fatalf("post-recovery submission = (%+v, %v)", res, err)
	}
	if got := c2.Committed(); got != len(wantLog)+1 {
		t.Fatalf("post-recovery commit log has %d entries, want %d", got, len(wantLog)+1)
	}
}

// TestWALRecoverMembership: a cluster that joined a site and drained
// another writes membership records to its WAL; a crashed-and-rebooted
// incarnation (booted at the original width) must recover the grown
// width, the per-slot statuses, and the membership epoch — the drained
// slot stays fenced, the joined slot keeps serving.
func TestWALRecoverMembership(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*homeo.Cluster, *homeo.TxnClass) {
		t.Helper()
		c, err := homeo.New(homeo.Options{
			Runtime:   homeo.RuntimeSim,
			Sites:     2,
			Seed:      3,
			EnableLog: true,
			WAL:       homeo.WALOptions{Dir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		cls, err := c.Register(homeo.ClassSpec{
			L:       withdrawSrc,
			Bounds:  map[string][2]int64{"n": {1, 3}},
			Initial: map[string]int64{"bal": 300},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, cls
	}

	c1, cls := mk()
	if _, err := c1.Recover(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := c1.Session()
	for i := 0; i < 10; i++ {
		if _, err := s.Submit(ctx, cls, int64(1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if joined, err := c1.Join(""); err != nil || joined != 2 {
		t.Fatalf("Join = (%d, %v), want (2, nil)", joined, err)
	}
	at2, err := c1.SessionAt(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := at2.Submit(ctx, cls, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wantEpoch := c1.TopologyEpoch()
	wantStatus := c1.SiteStatuses()
	wantLog := c1.WireLog()
	c1.Close()

	c2, cls2 := mk() // boots at the original width 2
	n, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("recovery replayed nothing")
	}
	defer c2.Close()
	if got := c2.Sites(); got != 3 {
		t.Fatalf("recovered width = %d, want 3 (the joined slot)", got)
	}
	if got := c2.TopologyEpoch(); got != wantEpoch {
		t.Fatalf("recovered epoch = %d, want %d", got, wantEpoch)
	}
	if got := c2.SiteStatuses(); !reflect.DeepEqual(got, wantStatus) {
		t.Fatalf("recovered statuses = %v, want %v", got, wantStatus)
	}
	if got := c2.WireLog(); len(got) != len(wantLog) {
		t.Fatalf("recovered commit log has %d entries, want %d", len(got), len(wantLog))
	}
	// The drained slot stays fenced across the crash...
	at0, err := c2.SessionAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := at0.Submit(ctx, cls2, 1); homeo.ErrorCode(err) != "site_gone" {
		t.Fatalf("submit at recovered-drained site: %v, want site_gone", err)
	}
	// ...and the joined slot keeps serving.
	at2r, err := c2.SessionAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := at2r.Submit(ctx, cls2, 1); err != nil || !res.Committed {
		t.Fatalf("submit at recovered-joined site = (%+v, %v)", res, err)
	}
	// Recovered entries replay through the class registry, so equivalence
	// is checked the multi-process way: merged log against the folded
	// partitions.
	parts := make([]wire.PartitionResponse, 0, c2.Sites())
	for k := 0; k < c2.Sites(); k++ {
		vals := map[string]int64{}
		for obj, v := range c2.System().PartitionDB(k) {
			vals[string(obj)] = v
		}
		parts = append(parts, wire.PartitionResponse{Site: k, Values: vals})
	}
	if err := c2.CheckMergedReplay([][]wire.LogEntry{c2.WireLog()}, parts); err != nil {
		t.Fatalf("replay equivalence after membership recovery: %v", err)
	}
}

// TestWALRecoverRefusesJSONPayload: a WAL record whose payload is JSON,
// the encoding older builds wrote, makes Recover fail with an error
// naming the site and the record index — it is neither skipped nor
// replayed as a zero value.
func TestWALRecoverRefusesJSONPayload(t *testing.T) {
	dir := t.TempDir()
	opts := homeo.Options{
		Runtime:   homeo.RuntimeSim,
		Sites:     2,
		Seed:      5,
		EnableLog: true,
		WAL:       homeo.WALOptions{Dir: dir},
	}
	spec := homeo.ClassSpec{
		L:       withdrawSrc,
		Bounds:  map[string][2]int64{"n": {1, 3}},
		Initial: map[string]int64{"bal": 60},
	}
	c1, err := homeo.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := c1.Register(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Recover(); err != nil {
		t.Fatal(err)
	}
	sess := c1.Session()
	for i := 0; i < 10; i++ {
		if _, err := sess.Submit(context.Background(), cls, 1); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()

	// Append a JSON-payload commit after the binary records site 0 wrote.
	l, recs, err := wal.Open(filepath.Join(dir, "site-0.wal"), wal.Options{GroupWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("site 0 logged nothing; the JSON record must follow valid ones")
	}
	if err := l.Append(wal.KindCommit, []byte(`{"class":"Withdraw","args":[1],"site":0,"clock":999}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := homeo.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Register(spec); err != nil {
		t.Fatal(err)
	}
	_, err = c2.Recover()
	want := fmt.Sprintf("site 0 WAL record %d", len(recs))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Recover over a JSON-payload record = %v, want an error naming %q", err, want)
	}
}
