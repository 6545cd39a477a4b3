package obs

import (
	"context"
	"io"
	"log/slog"
)

// Structured logging: the collector doubles as the process's logging
// hub. A deployment installs one base slog.Logger with SetLogger (built
// by NewLogger from the -v/-log-json flags) and every component asks
// for a child via Logger("ingest"), Logger("daemon"), ... which stamps
// a component attribute on each record. Code paths log unconditionally:
// a nil collector — or one with no base logger — hands back a shared
// discard logger, so the nil-telemetry fast path allocates nothing.

// NewLogger builds a structured logger writing to w at the given
// minimum level, as human-readable text or as one JSON object per line
// (machine-readable, for log shippers).
func NewLogger(w io.Writer, level slog.Level, jsonFormat bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

var discardLogger = slog.New(discardHandler{})

// discardHandler is a slog.Handler that is disabled at every level, so
// the slog front end skips record assembly entirely.
type discardHandler struct{}

// Enabled reports false for every level.
func (discardHandler) Enabled(context.Context, slog.Level) bool { return false }

// Handle drops the record.
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }

// WithAttrs returns the handler unchanged (nothing is kept).
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler { return discardHandler{} }

// WithGroup returns the handler unchanged.
func (discardHandler) WithGroup(string) slog.Handler { return discardHandler{} }

// SetLogger installs the base structured logger component loggers are
// derived from. No-op on a nil collector or nil logger.
func (c *Collector) SetLogger(l *slog.Logger) {
	if c == nil || l == nil {
		return
	}
	c.logger.Store(l)
}

// Logger returns a child of the base logger carrying
// component=<component>, or the shared discard logger when the
// collector is nil or no base logger was installed — callers hold on
// to the result and log unconditionally. The child is built per call;
// grab it once per connection or component, not per record.
func (c *Collector) Logger(component string) *slog.Logger {
	if c == nil {
		return discardLogger
	}
	l := c.logger.Load()
	if l == nil {
		return discardLogger
	}
	return l.With("component", component)
}
