//! Declarative YAML manifest rendering.
//!
//! The paper's Job Builder *"renders a declarative YAML manifest that is
//! understood by Kubernetes for job launch. Node placement is enforced by
//! injecting nodeAffinity rules into the generated specification."* This
//! module reproduces that rendering step with a small, dependency-free YAML
//! emitter: given a [`JobSpec`] plus a target node, it emits the
//! SparkApplication text a real deployment would apply with `kubectl`.

use crate::job::JobSpec;
use std::fmt::Write as _;

/// Append a memory quantity in Kubernetes notation (Mi granularity).
fn write_memory(out: &mut String, bytes: u64) {
    let _ = write!(out, "{}Mi", bytes / (1024 * 1024));
}

/// Append a YAML scalar, quoting and escaping when it is not a plain token.
fn write_yaml_escaped(out: &mut String, s: &str) {
    if s.chars()
        .all(|c| c.is_ascii_alphanumeric() || "-_./".contains(c))
        && !s.is_empty()
    {
        out.push_str(s);
    } else {
        out.push('"');
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                _ => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Append the nodeAffinity block for a single required-hostname pin.
fn write_required_hostname_affinity(out: &mut String, node: &str, indent: &str) {
    let _ = writeln!(out, "{indent}affinity:");
    let _ = writeln!(out, "{indent}  nodeAffinity:");
    let _ = writeln!(
        out,
        "{indent}    requiredDuringSchedulingIgnoredDuringExecution:"
    );
    let _ = writeln!(out, "{indent}      nodeSelectorTerms:");
    let _ = writeln!(out, "{indent}      - matchExpressions:");
    let _ = writeln!(out, "{indent}        - key: kubernetes.io/hostname");
    let _ = writeln!(out, "{indent}          operator: In");
    let _ = writeln!(out, "{indent}          values:");
    let _ = write!(out, "{indent}          - ");
    write_yaml_escaped(out, node);
    out.push('\n');
}

/// Render a SparkApplication-style manifest for a job into `out` (cleared
/// first), pinning the driver to `target_node` when given (the Job Builder's
/// nodeAffinity injection). The body goes through non-allocating write
/// helpers only, so steady-state re-rendering of same-shaped jobs reuses the
/// string's allocation and touches no heap.
pub fn render_job_manifest_into(out: &mut String, spec: &JobSpec, target_node: Option<&str>) {
    out.clear();
    let _ = writeln!(out, "apiVersion: sparkoperator.k8s.io/v1beta2");
    let _ = writeln!(out, "kind: SparkApplication");
    let _ = writeln!(out, "metadata:");
    let _ = write!(out, "  name: ");
    write_yaml_escaped(out, &spec.name);
    out.push('\n');
    let _ = writeln!(out, "  namespace: default");
    let _ = writeln!(out, "spec:");
    let _ = writeln!(out, "  type: Scala");
    let _ = writeln!(out, "  mode: cluster");
    let _ = write!(out, "  mainApplicationFile: local:///opt/spark/examples/");
    write_yaml_escaped(out, &spec.app_type);
    let _ = writeln!(out, ".jar");
    let _ = writeln!(out, "  arguments:");
    let _ = writeln!(out, "  - \"{}\"", spec.input_records);
    let _ = writeln!(out, "  - \"{}\"", spec.shuffle_partitions);
    let _ = writeln!(out, "  driver:");
    let _ = writeln!(
        out,
        "    cores: {}",
        (spec.driver_requests.cpu_millis / 1000).max(1)
    );
    let _ = write!(out, "    memory: ");
    write_memory(out, spec.driver_requests.memory_bytes);
    out.push('\n');
    let _ = writeln!(out, "    labels:");
    let _ = write!(out, "      app: ");
    write_yaml_escaped(out, &spec.app_type);
    out.push('\n');
    let _ = write!(out, "      job: ");
    write_yaml_escaped(out, &spec.name);
    out.push('\n');
    if let Some(node) = target_node {
        write_required_hostname_affinity(out, node, "    ");
    }
    let _ = writeln!(out, "  executor:");
    let _ = writeln!(out, "    instances: {}", spec.executor_count);
    let _ = writeln!(
        out,
        "    cores: {}",
        (spec.executor_requests.cpu_millis / 1000).max(1)
    );
    let _ = write!(out, "    memory: ");
    write_memory(out, spec.executor_requests.memory_bytes);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resources;

    fn memory(bytes: u64) -> String {
        let mut out = String::new();
        write_memory(&mut out, bytes);
        out
    }

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        write_yaml_escaped(&mut out, s);
        out
    }

    #[test]
    fn memory_notation() {
        assert_eq!(memory(512 * 1024 * 1024), "512Mi");
        assert_eq!(memory(2 * 1024 * 1024 * 1024), "2048Mi");
        assert_eq!(memory(1024 * 1024 + 1), "1Mi");
    }

    #[test]
    fn escaping_quotes_odd_strings() {
        assert_eq!(escaped("node-1"), "node-1");
        assert_eq!(escaped("kubernetes.io/hostname"), "kubernetes.io/hostname");
        assert_eq!(escaped("has space"), "\"has space\"");
        assert_eq!(escaped("quote\"inside"), "\"quote\\\"inside\"");
        assert_eq!(escaped("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(escaped(""), "\"\"");
    }

    /// The exact bytes of a pinned and an unpinned manifest, for a job whose
    /// name needs quoting. `render_job_manifest_into` is the only renderer,
    /// so these goldens are what pins its output.
    #[test]
    fn job_manifest_bytes_are_pinned() {
        let spec = JobSpec::new("sort 100k", "sort", 100_000)
            .with_executors(3)
            .with_driver_requests(Resources::from_cores_and_gib(1, 2))
            .with_executor_requests(Resources::from_cores_and_mib(2, 1536));
        let head = "apiVersion: sparkoperator.k8s.io/v1beta2
kind: SparkApplication
metadata:
  name: \"sort 100k\"
  namespace: default
spec:
  type: Scala
  mode: cluster
  mainApplicationFile: local:///opt/spark/examples/sort.jar
  arguments:
  - \"100000\"
  - \"8\"
  driver:
    cores: 1
    memory: 2048Mi
    labels:
      app: sort
      job: \"sort 100k\"
";
        let pin = "    affinity:
      nodeAffinity:
        requiredDuringSchedulingIgnoredDuringExecution:
          nodeSelectorTerms:
          - matchExpressions:
            - key: kubernetes.io/hostname
              operator: In
              values:
              - node-5
";
        let tail = "  executor:
    instances: 3
    cores: 2
    memory: 1536Mi
";
        let mut out = String::from("stale text the render must clear");
        render_job_manifest_into(&mut out, &spec, Some("node-5"));
        assert_eq!(out, format!("{head}{pin}{tail}"));
        render_job_manifest_into(&mut out, &spec, None);
        assert_eq!(out, format!("{head}{tail}"));
    }
}
