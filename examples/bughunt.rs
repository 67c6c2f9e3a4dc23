//! Bug hunt: sweep the opcodes behind the paper's §6.2 findings and print
//! the root-cause report — a miniature of the paper's difference analysis.
//!
//! ```text
//! cargo run --release --example bughunt
//! ```

use pokemu::harness::{run_cross_validation, Clusters, PipelineConfig};

fn main() {
    // Opcodes hosting the paper's root causes: leave (atomicity), cmpxchg
    // (atomicity), iret (pop order), two-byte opcodes (rdmsr, segment-load
    // accessed flag), mov moffs (segment limits), salc (rejected encoding),
    // mul/div (undefined flags).
    let sweep: &[(u8, &str)] = &[
        (0xc9, "leave"),
        (0xcf, "iret"),
        (0xa2, "mov [moffs], al"),
        (0xd6, "salc"),
        (0x8e, "mov sreg, r/m16"),
        (0xf7, "group f7 (mul/div/...)"),
        (0x0f, "two-byte opcodes"),
    ];

    let mut lofi_total = Clusters::new();
    let mut hifi_total = Clusters::new();
    let mut paths = 0usize;
    let mut lofi_raw = 0usize;
    let mut hifi_raw = 0usize;

    for &(byte, name) in sweep {
        println!("exploring {byte:#04x} ({name}) ...");
        let r = run_cross_validation(PipelineConfig {
            first_byte: Some(byte),
            max_paths_per_insn: 192,
            ..PipelineConfig::default()
        });
        println!(
            "  {} instructions, {} paths, lofi diffs {} (filtered {})",
            r.unique_instructions, r.total_paths, r.lofi_differences, r.lofi_filtered
        );
        paths += r.total_paths;
        lofi_raw += r.lofi_differences;
        hifi_raw += r.hifi_differences;
        for (cause, count, examples) in r.lofi_clusters.iter() {
            for _ in 0..count {
                lofi_total.add(examples.first().map(String::as_str).unwrap_or("?"), cause);
            }
        }
        for (cause, count, examples) in r.hifi_clusters.iter() {
            for _ in 0..count {
                hifi_total.add(examples.first().map(String::as_str).unwrap_or("?"), cause);
            }
        }
    }

    println!();
    println!("================ BUG HUNT REPORT ================");
    println!("test programs executed: {paths}  (x3 targets)");
    println!("raw differences vs hardware: lofi={lofi_raw} hifi={hifi_raw}");
    println!();
    println!("Lo-Fi (QEMU-like) root causes:");
    for (cause, count, _) in lofi_total.iter() {
        println!("  {count:6}  {cause}");
    }
    println!();
    println!("Hi-Fi (Bochs-like) root causes:");
    for (cause, count, _) in hifi_total.iter() {
        println!("  {count:6}  {cause}");
    }
}
