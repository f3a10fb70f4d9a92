package core

import (
	"testing"
	"time"
)

func TestAvailabilityScheduleDeterministic(t *testing.T) {
	nodes, warmup, measure := availabilityQuick.resolve(4, 24*time.Second)
	for _, rg := range availabilityRegimes {
		s1, c1, err := availabilitySchedule(1, rg.label, nodes, warmup, measure, rg.mtbf, rg.mttr)
		if err != nil {
			t.Fatalf("%s: %v", rg.label, err)
		}
		s2, c2, err := availabilitySchedule(1, rg.label, nodes, warmup, measure, rg.mtbf, rg.mttr)
		if err != nil {
			t.Fatalf("%s: %v", rg.label, err)
		}
		if s1 != s2 || len(c1) != 1 || len(c2) != 1 || c1[0] != c2[0] {
			t.Fatalf("%s: schedule not deterministic: %v/%v vs %v/%v", rg.label, s1, c1, s2, c2)
		}
		lo, hi := warmup+2*time.Second, warmup+measure-availabilitySpacing
		if c1[0].At < lo || c1[0].At > hi {
			t.Fatalf("%s: crash %v outside the measurable window [%v,%v]", rg.label, c1[0].At, lo, hi)
		}
	}
}
