//! Normally-off computing: a duty-cycled microcontroller whose register
//! file is backed by NV flip-flops, checkpointing across power-off
//! intervals — the application scenario of the paper's introduction
//! (and of its reference [30], a 120 ns-wake-up NV microcontroller).
//!
//! ```text
//! cargo run --release --example checkpoint_restore
//! ```

use spintronic_ff::prelude::*;

/// A toy 8-register machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MachineState {
    registers: [u16; 8],
    pc: u16,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 144 bits of architectural state → 72 shared 2-bit NV flip-flops.
    let mut flops: Vec<MultiBitNvFlipFlop> = (0..72).map(|_| MultiBitNvFlipFlop::new()).collect();

    let state = MachineState {
        registers: [
            0xBEEF, 0x1234, 0xFFFF, 0x0000, 0xA5A5, 0x5A5A, 0x0F0F, 0xCAFE,
        ],
        pc: 0x42,
    };
    println!("checkpointing machine state: {state:04X?}");

    // Serialize into the flip-flop pairs.
    let bits = to_bits(&state);
    for (pair, chunk) in flops.iter_mut().zip(bits.chunks(2)) {
        pair.capture(0, chunk[0])?;
        pair.capture(1, chunk[1])?;
    }

    // Power off the entire core.
    for pair in &mut flops {
        pair.power_down()?;
    }
    println!("core powered down — zero leakage in the NV shadow array");

    // ... arbitrarily long later: wake up and restore.
    let mut restored_bits = Vec::with_capacity(144);
    for pair in &mut flops {
        pair.power_up()?;
        restored_bits.push(pair.q(0).expect("restored"));
        restored_bits.push(pair.q(1).expect("restored"));
    }
    let restored = from_bits(&restored_bits);
    println!("restored state:             {restored:04X?}");
    assert_eq!(state, restored, "checkpoint round-trip must be lossless");

    // The energy economics of the checkpoint, per the paper's numbers.
    let per_ff_leakage = Power::from_pico_watts(1565.0 / 2.0);
    let model = PowerGatingModel::new(
        per_ff_leakage * 144.0,
        Energy::from_femto_joules(104.0) * 144.0, // store all bits
        Energy::from_femto_joules(4.587) * 72.0,  // restore via 2-bit reads
    );
    println!("\ncheckpoint economics for the 144-bit state:");
    println!("  store energy   : {}", model.store_energy());
    println!("  restore energy : {}", model.restore_energy());
    println!("  break-even idle: {}", model.break_even_idle());
    for idle_us in [10.0, 100.0, 1000.0, 10_000.0] {
        let idle = Time::from_micro_seconds(idle_us);
        println!(
            "  idle {:>8}: net saving {}",
            format!("{idle}"),
            model.net_saving(idle)
        );
    }
    println!(
        "\nwake-up latency budget: {} system wake-up vs {} sequential 2-bit restore — \
         the restore hides entirely inside the supply stabilization, the paper's Section III-D \
         argument.",
        Time::from_nano_seconds(120.0),
        Time::from_pico_seconds(360.0),
    );
    Ok(())
}

fn to_bits(state: &MachineState) -> Vec<bool> {
    let mut bits = Vec::with_capacity(144);
    for r in state.registers.iter().chain([state.pc].iter()) {
        for k in 0..16 {
            bits.push((r >> k) & 1 == 1);
        }
    }
    bits
}

fn from_bits(bits: &[bool]) -> MachineState {
    let mut words = [0u16; 9];
    for (w, chunk) in words.iter_mut().zip(bits.chunks(16)) {
        for (k, &b) in chunk.iter().enumerate() {
            if b {
                *w |= 1 << k;
            }
        }
    }
    MachineState {
        registers: words[..8].try_into().expect("eight registers"),
        pc: words[8],
    }
}
