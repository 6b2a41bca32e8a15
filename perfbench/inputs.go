package main

import (
	"fmt"
	"math/rand"

	"repro/homeo"
	"repro/homeo/wire"
)

// The registered classes come from three isomorphic families, familySize
// classes each; the first batchPerFamily of every family register as one
// batch and the rest one at a time.
const (
	familySize     = 4
	batchPerFamily = 2
	readRows       = 8
)

// classSet is the generated registration input of one run.
type classSet struct {
	batch, singles []wire.ClassRequest
	// prices holds every read class's table: prices[class][key-1].
	prices map[string][]int64
}

// genClasses builds the class specs from the seed: a coordination-free
// deposit, a guarded withdraw whose slack (a balance of about 1e9 against
// withdrawals of at most 5) far exceeds any run's demand, and a SQL point
// read.
func genClasses(seed int64) classSet {
	rng := rand.New(rand.NewSource(seed))
	cs := classSet{prices: map[string][]int64{}}
	bounds := map[string][2]int64{"n": {1, 5}}
	for i := 0; i < familySize; i++ {
		dep := wire.ClassRequest{
			L:       fmt.Sprintf("transaction Dep%d(n) { v := read(acct%d); write(acct%d = v + n) }", i, i, i),
			Bounds:  bounds,
			Initial: map[string]int64{fmt.Sprintf("acct%d", i): rng.Int63n(1000)},
		}
		wd := wire.ClassRequest{
			L: fmt.Sprintf("transaction Wd%d(n) { v := read(bal%d); if (v - n > 0) then write(bal%d = v - n) else skip }",
				i, i, i),
			Bounds:  bounds,
			Initial: map[string]int64{fmt.Sprintf("bal%d", i): 1_000_000_000 + rng.Int63n(1000)},
		}
		name := fmt.Sprintf("Rd%d", i)
		rows := make([][]int64, readRows)
		prices := make([]int64, readRows)
		for k := range rows {
			prices[k] = 1 + rng.Int63n(10_000)
			rows[k] = []int64{int64(k + 1), prices[k]}
		}
		cs.prices[name] = prices
		rd := wire.ClassRequest{
			Name: name,
			SQL: fmt.Sprintf("CREATE TABLE item%d (id, price) SIZE %d\nSELECT SUM(price) FROM item%d WHERE id = @k",
				i, readRows, i),
			Bounds: map[string][2]int64{"k": {1, readRows}},
			Rows:   map[string][][]int64{fmt.Sprintf("item%d", i): rows},
		}
		if i < batchPerFamily {
			cs.batch = append(cs.batch, dep, wd, rd)
		} else {
			cs.singles = append(cs.singles, dep, wd, rd)
		}
	}
	return cs
}

// spec converts a wire class request into the embeddable API's form.
func spec(r wire.ClassRequest) homeo.ClassSpec {
	return homeo.ClassSpec{Name: r.Name, L: r.L, SQL: r.SQL, Bounds: r.Bounds, Initial: r.Initial, Rows: r.Rows}
}

// request is one generated submission and, for a point read, the value
// its log must return. An empty class asks for a base-workload draw.
type request struct {
	txn    wire.TxnRequest
	expect *int64
}

// genRequests draws n submissions: a base-workload draw with probability
// baseShare, otherwise a registered class chosen uniformly, then its
// argument.
func genRequests(seed int64, n int, cs classSet, baseShare float64) []request {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	out := make([]request, n)
	for i := range out {
		if rng.Float64() < baseShare {
			continue
		}
		fam, k := rng.Intn(3), rng.Intn(familySize)
		switch fam {
		case 0:
			out[i].txn = wire.TxnRequest{Class: fmt.Sprintf("Dep%d", k), Args: []int64{1 + rng.Int63n(5)}}
		case 1:
			out[i].txn = wire.TxnRequest{Class: fmt.Sprintf("Wd%d", k), Args: []int64{1 + rng.Int63n(5)}}
		default:
			name := fmt.Sprintf("Rd%d", k)
			key := 1 + rng.Int63n(readRows)
			out[i].txn = wire.TxnRequest{Class: name, Args: []int64{key}}
			out[i].expect = &cs.prices[name][key-1]
		}
	}
	return out
}
