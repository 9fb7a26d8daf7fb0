package core_test

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/dls"
	"repro/internal/core"
)

// TestErrNoCommonZMessage checks that ErrNoCommonZ names Theorem 1 and
// points at alternatives a client can actually request: every strategy
// its "(use the … strategy)" clause names must be registered in dls.
func TestErrNoCommonZMessage(t *testing.T) {
	msg := core.ErrNoCommonZ.Error()
	if !strings.Contains(msg, "Theorem 1") {
		t.Errorf("ErrNoCommonZ %q does not name Theorem 1", msg)
	}
	m := regexp.MustCompile(`\(use the (.+) strategy\)`).FindStringSubmatch(msg)
	if m == nil {
		t.Fatalf("ErrNoCommonZ %q names no alternative strategy", msg)
	}
	registered := dls.Strategies()
	for _, name := range strings.Split(m[1], " or ") {
		if !slices.Contains(registered, name) {
			t.Errorf("ErrNoCommonZ suggests %q, which is not a registered strategy (have %v)", name, registered)
		}
	}
}
