package permit

import (
	"testing"

	"declnet/internal/addr"
)

func shieldUnderTest(t *testing.T, threshold uint64) (*Shield, addr.IP, addr.IP) {
	t.Helper()
	e := NewEngine()
	dst := ipa("198.18.0.1")
	good := ipa("203.0.113.1")
	e.Set(dst, []Entry{addr.NewPrefix(good, 32)})
	return NewShield(e, threshold), dst, good
}

func TestShieldPassesPermitted(t *testing.T) {
	s, dst, good := shieldUnderTest(t, 3)
	for i := 0; i < 100; i++ {
		if !s.Check(good, dst) {
			t.Fatal("permitted source blocked by shield")
		}
	}
	if s.Greylisted != 0 || s.Denied != 0 {
		t.Fatalf("counters = grey %d denied %d for clean traffic", s.Greylisted, s.Denied)
	}
}

func TestShieldGreylistsAfterThreshold(t *testing.T) {
	s, dst, _ := shieldUnderTest(t, 3)
	attacker := ipa("203.0.113.66")
	for i := 0; i < 3; i++ {
		if s.Check(attacker, dst) {
			t.Fatal("unpermitted source admitted")
		}
		if i < 2 && s.IsGreylisted(attacker) {
			t.Fatalf("greylisted after only %d denials", i+1)
		}
	}
	if !s.IsGreylisted(attacker) {
		t.Fatal("not greylisted after threshold denials")
	}
	// Subsequent packets are shed cheaply, without engine lookups.
	before := s.Engine().Lookups.Load()
	for i := 0; i < 1000; i++ {
		s.Check(attacker, dst)
	}
	if s.Engine().Lookups.Load() != before {
		t.Fatal("greylisted source still charged permit lookups")
	}
	if s.Greylisted != 1000 {
		t.Fatalf("Greylisted = %d, want 1000", s.Greylisted)
	}
}

func TestShieldGreylistDoesNotAffectOthers(t *testing.T) {
	s, dst, good := shieldUnderTest(t, 2)
	attacker := ipa("203.0.113.66")
	s.Check(attacker, dst)
	s.Check(attacker, dst)
	if !s.Check(good, dst) {
		t.Fatal("legitimate source collateral-damaged by greylist")
	}
}

func TestShieldPardon(t *testing.T) {
	s, dst, good := shieldUnderTest(t, 1)
	attacker := ipa("203.0.113.66")
	s.Check(attacker, dst)
	if !s.IsGreylisted(attacker) {
		t.Fatal("threshold-1 shield did not greylist immediately")
	}
	s.Pardon(attacker)
	if s.IsGreylisted(attacker) {
		t.Fatal("pardon did not lift greylist")
	}
	// A pardoned source that is later permitted flows normally.
	s.Engine().Set(dst, []Entry{addr.NewPrefix(good, 32), addr.NewPrefix(attacker, 32)})
	if !s.Check(attacker, dst) {
		t.Fatal("pardoned+permitted source still blocked")
	}
}

func TestTopOffenders(t *testing.T) {
	s, dst, _ := shieldUnderTest(t, 1000)
	for i, n := range []int{5, 9, 2} {
		src := ipa("203.0.113.66") + addr.IP(i)
		for j := 0; j < n; j++ {
			s.Check(src, dst)
		}
	}
	top := s.TopOffenders(2)
	if len(top) != 2 {
		t.Fatalf("TopOffenders = %v", top)
	}
	if top[0].Denials != 9 || top[1].Denials != 5 {
		t.Fatalf("offender order wrong: %v", top)
	}
	if s.GreylistSize() != 0 {
		t.Fatalf("greylist size = %d below threshold", s.GreylistSize())
	}
}

func TestShieldThresholdClamp(t *testing.T) {
	e := NewEngine()
	s := NewShield(e, 0)
	s.Check(ipa("1.1.1.1"), ipa("2.2.2.2"))
	if !s.IsGreylisted(ipa("1.1.1.1")) {
		t.Fatal("threshold 0 not clamped to 1")
	}
}
