package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

func TestParseTenantValid(t *testing.T) {
	limits := func(w int, rate, burst float64, backlog int) server.TenantLimits {
		return server.TenantLimits{Weight: w, Rate: rate, Burst: burst, Backlog: backlog}
	}
	for _, tc := range []struct {
		in   string
		want server.TenantConfig
	}{
		{"acme:k", server.TenantConfig{Name: "acme", Key: "k"}},
		{" acme : k ", server.TenantConfig{Name: "acme", Key: "k"}},
		{"default:", server.TenantConfig{Name: "default"}},
		{"acme:k:3", server.TenantConfig{Name: "acme", Key: "k", TenantLimits: limits(3, 0, 0, 0)}},
		{"acme:k:2:1.5:4:10", server.TenantConfig{Name: "acme", Key: "k", TenantLimits: limits(2, 1.5, 4, 10)}},
		{"acme:k::0.5", server.TenantConfig{Name: "acme", Key: "k", TenantLimits: limits(0, 0.5, 0, 0)}},
		{"acme:k:0:0:0:0", server.TenantConfig{Name: "acme", Key: "k"}},
		{"acme:k:1:2e1", server.TenantConfig{Name: "acme", Key: "k", TenantLimits: limits(1, 20, 0, 0)}},
	} {
		got, err := parseTenant(tc.in)
		if err != nil {
			t.Errorf("parseTenant(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseTenant(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestParseTenantRejects: every malformed field is an error that names
// the field, never a silently truncated or defaulted value.
func TestParseTenantRejects(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"acme", "want name:key"},
		{"a:k:1:1:1:1:1", "want name:key"},
		{":k", "empty name"},
		{"acme:", "empty API key"},
		{"acme:k:3x", "bad weight"},
		{"acme:k:1.5", "bad weight"},
		{"acme:k:-1", "bad weight"},
		{"acme:k:1:abc", "bad rate"},
		{"acme:k:1:NaN", "bad rate"},
		{"acme:k:1:Inf", "bad rate"},
		{"acme:k:1:1e400", "bad rate"},
		{"acme:k:1:-2", "bad rate"},
		{"acme:k:1:1:+Inf", "bad burst"},
		{"acme:k:1:1:-1", "bad burst"},
		{"acme:k:1:1:1:2.5", "bad backlog"},
		{"acme:k:1:1:1:-3", "bad backlog"},
	} {
		_, err := parseTenant(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseTenant(%q) = %v, want an error containing %q", tc.in, err, tc.want)
		}
	}
}

func TestSplitURLs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",", nil},
		{" , ,", nil},
		{"http://a:1", []string{"http://a:1"}},
		{" http://a:1/ ,http://b:2//,, ", []string{"http://a:1", "http://b:2"}},
	} {
		if got := splitURLs(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitURLs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
