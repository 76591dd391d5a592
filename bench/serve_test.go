package main

import (
	"reflect"
	"testing"
)

func flatten(list []job) []string {
	out := make([]string, len(list))
	for i, j := range list {
		out[i] = j.class.name + "/" + j.decomp
	}
	return out
}

func TestJobListIsDeterministicAndSeeded(t *testing.T) {
	s1, l1, a := jobList(7)
	s2, l2, b := jobList(7)
	if !reflect.DeepEqual(flatten(a), flatten(b)) || s1.tau != s2.tau || l1.tau != l2.tau {
		t.Fatal("the same seed gave different inputs")
	}
	s3, _, c := jobList(8)
	if reflect.DeepEqual(flatten(a), flatten(c)) && s1.tau == s3.tau {
		t.Fatal("a different seed gave the same inputs")
	}
}

func TestJobListMix(t *testing.T) {
	small, large, list := jobList(42)
	if len(list) != jobBlocks*(smallPerBlock+1) {
		t.Fatalf("%d jobs, want %d", len(list), jobBlocks*(smallPerBlock+1))
	}
	for b := 0; b < jobBlocks; b++ {
		larges := 0
		for _, j := range list[b*(smallPerBlock+1) : (b+1)*(smallPerBlock+1)] {
			if j.class == large {
				larges++
			} else if j.class != small {
				t.Fatal("job of an unknown class")
			}
		}
		if larges != 1 {
			t.Errorf("block %d holds %d large jobs; every prefix of the list must hold the same mix", b, larges)
		}
	}
	for i, j := range list {
		if want := []string{"2x1", "patch2"}[i%2]; j.decomp != want {
			t.Fatalf("job %d runs on %s, want alternating %s", i, j.decomp, want)
		}
	}
	for _, c := range []*jobClass{small, large} {
		if c.tau < 0.6 || c.tau > 0.9 {
			t.Errorf("%s tau %v outside [0.6, 0.9]", c.name, c.tau)
		}
	}
	if small.work() != 32*32*32*40 || large.work() != 64*64*64*20 {
		t.Errorf("work per job: small %v large %v", small.work(), large.work())
	}
}
