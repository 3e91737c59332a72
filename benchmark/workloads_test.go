package main

import (
	"reflect"
	"testing"
)

func TestTwoShardTransactionsAlwaysStraddle(t *testing.T) {
	w, _ := workloadByName("tcp-2shard-2pc")
	for app := 0; app < numApps; app++ {
		src, err := newTxnSource(w, app, 7)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := twoShardParams(app)
		for i := 0; i < 2000; i++ {
			txn := src.next()
			var wroteLow, wroteHigh bool
			for _, r := range txn.Refs {
				inHot := r.Page >= p.HotLo && r.Page < p.HotHi
				inCold := r.Page >= p.ColdLo && r.Page < p.ColdHi
				if !inHot && !inCold {
					t.Fatalf("app %d touches page %d outside its ranges", app, r.Page)
				}
				if r.Write {
					wroteLow = wroteLow || r.Page < shardPages
					wroteHigh = wroteHigh || r.Page >= shardPages
				}
			}
			if !wroteLow || !wroteHigh {
				t.Fatalf("app %d transaction %d does not write both shards: %+v", app, i, txn.Refs)
			}
		}
	}
}

func TestTwoShardRangesAreDisjointAndSplitAcrossShards(t *testing.T) {
	type rng [2]uint32
	var all []rng
	for app := 0; app < numApps; app++ {
		rs := twoShardRanges(app)
		if len(rs) != 2 || rs[0][1] > shardPages || rs[1][0] < shardPages || rs[1][1] > dbPages {
			t.Fatalf("app %d ranges %v are not one per shard", app, rs)
		}
		all = append(all, rs[0], rs[1])
	}
	for i, a := range all {
		for _, b := range all[i+1:] {
			if a[0] < b[1] && b[0] < a[1] {
				t.Errorf("ranges %v and %v overlap", a, b)
			}
		}
	}
	if _, err := twoShardParams(shardPages / 150); err == nil {
		t.Error("an application beyond the shard's pages got a range")
	}
}

func TestSimAndTCPHotcoldDrawIdenticalStrings(t *testing.T) {
	tcp, _ := workloadByName("tcp-hotcold")
	sim, _ := workloadByName("sim-hotcold")
	for app := 0; app < numApps; app++ {
		a, err := newTxnSource(tcp, app, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newTxnSource(sim, app, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if !reflect.DeepEqual(a.next(), b.next()) {
				t.Fatalf("app %d transaction %d differs", app, i)
			}
		}
	}
}

func TestSameSeedSameStringsOtherSeedOtherStrings(t *testing.T) {
	for _, w := range workloads {
		a, _ := newTxnSource(w, 0, 5)
		b, _ := newTxnSource(w, 0, 5)
		c, _ := newTxnSource(w, 0, 6)
		x, y, z := a.next(), b.next(), c.next()
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s: same seed, different strings", w.name)
		}
		if reflect.DeepEqual(x, z) {
			t.Errorf("%s: different seeds, same string", w.name)
		}
	}
}
