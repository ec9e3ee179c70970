package lmp

import "github.com/lmp-project/lmp/internal/alloc"

// Option adjusts a Config in New. Config is the way to configure a pool:
// every knob is one of its fields. Option and the three setters below
// remain only because the benchmark harness (bench/target.go) compiles
// against them; no example, command or doc uses them, and they go once
// the harness builds its pools from Config.
type Option func(*Config)

// WithPlacement sets Config.Placement.
func WithPlacement(p alloc.Policy) Option {
	return func(c *Config) { c.Placement = p }
}

// WithLocalCache sets Config.Cache to cc with Enabled set.
func WithLocalCache(cc CacheConfig) Option {
	return func(c *Config) {
		cc.Enabled = true
		c.Cache = cc
	}
}

// WithTracing sets Config.Trace.
func WithTracing(tc TraceConfig) Option {
	return func(c *Config) { c.Trace = tc }
}
