package obs

import (
	"log/slog"
	"strings"
)

// ParseLogLevel maps a -log-level flag value to its slog level. Unknown
// input logs at info: a misconfigured flag should log more, not crash.
func ParseLogLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	}
	return slog.LevelInfo
}
