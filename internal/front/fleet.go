package front

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// FleetConfig is the on-disk deployment description consumed by qtsimd -fleet
// (see examples/fleet.json and docs/DEPLOY.md). Unknown fields are
// rejected so typos fail loudly at startup rather than silently running
// with defaults.
type FleetConfig struct {
	// Listen is the front tier's bind address (default ":8090").
	Listen string `json:"listen"`
	// Workers are the qtsimd base URLs the front shards across.
	Workers []string `json:"workers"`
	// HealthIntervalMs is the worker health-sweep period in milliseconds
	// (default 1000).
	HealthIntervalMs int `json:"health_interval_ms,omitempty"`
	// QuotaRatePerSec is the per-tenant admission rate; 0 disables quotas.
	QuotaRatePerSec float64 `json:"quota_rate_per_sec,omitempty"`
	// QuotaBurst is the per-tenant bucket capacity (default 8).
	QuotaBurst int `json:"quota_burst,omitempty"`
	// CacheMax bounds the content-addressed result cache (default 256).
	CacheMax int `json:"cache_max,omitempty"`
}

// ParseFleetConfig strictly decodes a FleetConfig from JSON bytes: an
// unknown field, or anything but whitespace after the one object, is an
// error.
func ParseFleetConfig(raw []byte) (FleetConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var fc FleetConfig
	if err := dec.Decode(&fc); err != nil {
		return FleetConfig{}, fmt.Errorf("parsing fleet config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return FleetConfig{}, errors.New("parsing fleet config: trailing content after the JSON object")
	}
	if fc.Listen == "" {
		fc.Listen = ":8090"
	}
	if len(fc.Workers) == 0 {
		return FleetConfig{}, fmt.Errorf("fleet config lists no workers")
	}
	return fc, nil
}

// LoadFleetConfig reads and parses a fleet config file.
func LoadFleetConfig(path string) (FleetConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return FleetConfig{}, err
	}
	return ParseFleetConfig(raw)
}

// FrontConfig converts the deployment description into the Front's runtime
// Config.
func (fc FleetConfig) FrontConfig() Config {
	return Config{
		Workers:        fc.Workers,
		HealthInterval: time.Duration(fc.HealthIntervalMs) * time.Millisecond,
		QuotaRate:      fc.QuotaRatePerSec,
		QuotaBurst:     fc.QuotaBurst,
		CacheMax:       fc.CacheMax,
	}
}
