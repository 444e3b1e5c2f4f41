package cluster

import (
	"fmt"

	ps "repro"
	"repro/wire"
)

// BuildWorld constructs the deterministic world replica a NodeConfig
// names. Coordinator and nodes call the same factory with the same seed,
// which is the whole basis of the lockstep model: identical fleets,
// identical random-walk streams, identical offer order.
func BuildWorld(cfg wire.NodeConfig) (*ps.World, error) {
	switch cfg.World {
	case "rwm":
		if cfg.Sensors < 1 {
			return nil, fmt.Errorf("cluster: rwm world needs a positive sensor count, got %d", cfg.Sensors)
		}
		return ps.NewRWMWorld(cfg.Seed, cfg.Sensors, ps.SensorConfig{}), nil
	case "rnc":
		return ps.NewRNCWorld(cfg.Seed, ps.SensorConfig{}), nil
	case "intellab":
		return ps.NewIntelLabWorld(cfg.Seed, ps.SensorConfig{}), nil
	default:
		return nil, fmt.Errorf("cluster: unknown world %q (want rwm, rnc or intellab)", cfg.World)
	}
}
